//! The semantic item model built on [`crate::lex`].
//!
//! A [`FileModel`] is the parsed item structure of one source file: the
//! item kinds, names, visibility, doc attachment, `#[cfg(test)]` status,
//! signatures, struct fields / enum variants, and `use` declarations,
//! nested through inline modules, impl blocks, and trait bodies. A
//! [`CrateModel`] stitches the per-file models into the crate's module
//! tree by resolving out-of-line `mod foo;` declarations, so file-level
//! facts — is this whole file a test module? is it publicly reachable? —
//! are available to every check.
//!
//! The parser is deliberately tolerant: anything it cannot shape into an
//! item is skipped one token tree at a time, so arbitrary input produces
//! a (possibly empty) model, never a panic.

use crate::lex::{build_trees, lex, Delim, Tok, TokKind, Tree};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name;` or `mod name { .. }`.
    Mod,
    /// `fn`.
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// `impl` block (children are its items).
    Impl,
    /// `type` alias.
    TypeAlias,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `use` declaration.
    Use,
    /// `extern crate`.
    ExternCrate,
    /// `macro_rules!` definition.
    MacroDef,
    /// An item-position macro invocation (`foo! { .. }`).
    MacroCall,
    /// Anything else (skipped tokens).
    Other,
}

/// Item visibility as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in path)`.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// One field of a struct or one variant of an enum.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field or variant name.
    pub name: String,
    /// Visibility (variants inherit the enum's and are marked `Pub`).
    pub vis: Vis,
    /// Whether a doc comment or `#[doc = ..]` attribute is attached.
    pub has_doc: bool,
    /// Rendered signature (`name: Type` / variant with payload).
    pub sig: String,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Kind.
    pub kind: ItemKind,
    /// Name (empty for `impl` and `use` items).
    pub name: String,
    /// Visibility as written.
    pub vis: Vis,
    /// Byte span from the first attached attribute/doc through the body
    /// close or semicolon — blanking this span removes the whole item.
    pub span: (usize, usize),
    /// 1-based line of the item keyword.
    pub line: usize,
    /// The item (or an enclosing attribute) is gated on `cfg(test)`.
    pub cfg_test: bool,
    /// A doc comment or `#[doc = ..]` attribute is attached.
    pub has_doc: bool,
    /// `#[doc(hidden)]` is attached.
    pub doc_hidden: bool,
    /// Rendered one-line signature (through the end of the header).
    pub sig: String,
    /// Byte span of the body group interior, for `fn` items.
    pub body: Option<(usize, usize)>,
    /// Child items (module bodies, impl blocks, trait bodies).
    pub children: Vec<Item>,
    /// Struct fields or enum variants.
    pub fields: Vec<FieldInfo>,
    /// For `impl` items: the last identifier of the self type.
    pub impl_self: Option<String>,
    /// For `impl` items: whether this is a trait impl (`impl T for U`).
    pub impl_trait: bool,
    /// For `mod` items: `true` for `mod x { .. }`, `false` for `mod x;`.
    pub mod_inline: bool,
    /// For `use`/`extern crate` items: the first path segment.
    pub use_root: Option<String>,
}

/// The parsed model of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// The file carries inner docs (`//!` or `#![doc = ..]`).
    pub has_inner_doc: bool,
    /// The file carries `#![cfg(test)]`.
    pub cfg_test: bool,
    /// The identifiers the file's code calls, names in a path or
    /// imports, sorted and deduplicated: comments, strings and doc-tests
    /// hold none, and re-exports (`use` with any `pub`) are left out, as
    /// they name an item without using it — the dead-API check's index.
    pub fn_refs: Vec<String>,
}

/// Parses one file's source text into its model plus the blanked views.
pub struct ParsedFile {
    /// The semantic model.
    pub model: FileModel,
    /// Source with comment/doc and literal interiors blanked to spaces
    /// (newlines preserved) — every byte position matches the original.
    pub code_view: String,
    /// `code_view` with every `cfg(test)` item span additionally blanked.
    pub lib_view: String,
}

/// Lexes and parses `src`, producing the model and both views.
pub fn parse_file(src: &str) -> ParsedFile {
    let toks = lex(src);
    let trees = build_trees(&toks);
    let mut parser = Parser { src, toks: &toks };
    let mut model = parser.parse_items(&trees, &mut FileFacts::default());
    let code_view = render_code_view(src, &toks);
    let mut lib_view = code_view.clone();
    blank_test_spans(&mut lib_view, &model.items);
    model.fn_refs = fn_refs(src, &toks, &model.items);
    ParsedFile {
        model,
        code_view,
        lib_view,
    }
}

/// File-level facts accumulated while parsing top-level trees.
#[derive(Default)]
struct FileFacts {
    has_inner_doc: bool,
    cfg_test: bool,
}

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Tok],
}

/// Attributes and docs collected ahead of an item.
#[derive(Default, Clone)]
struct Prefix {
    cfg_test: bool,
    has_doc: bool,
    doc_hidden: bool,
    start: Option<usize>,
}

impl<'s> Parser<'s> {
    fn text(&self, tree: &Tree) -> &'s str {
        match tree {
            Tree::Leaf(i) => self.toks[*i].text(self.src),
            Tree::Group { .. } => "",
        }
    }

    fn tok(&self, tree: &Tree) -> &Tok {
        &self.toks[tree.first_tok()]
    }

    /// Parses a tree slice as a sequence of items.
    fn parse_items(&mut self, trees: &[Tree], facts: &mut FileFacts) -> FileModel {
        let mut items = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            let before = i;
            if let Some(item) = self.parse_item(trees, &mut i, facts) {
                items.push(item);
            }
            if i == before {
                i += 1; // always advance: unparseable trees are skipped
            }
        }
        FileModel {
            items,
            has_inner_doc: facts.has_inner_doc,
            cfg_test: facts.cfg_test,
            fn_refs: Vec::new(),
        }
    }

    /// Collects doc comments and `#[..]` / `#![..]` attributes at `*i`.
    fn parse_prefix(&mut self, trees: &[Tree], i: &mut usize, facts: &mut FileFacts) -> Prefix {
        let mut p = Prefix::default();
        loop {
            match trees.get(*i) {
                Some(t @ Tree::Leaf(ti)) if self.toks[*ti].kind == TokKind::DocOuter => {
                    p.has_doc = true;
                    p.start.get_or_insert_with(|| self.tok(t).start);
                    *i += 1;
                }
                Some(Tree::Leaf(ti)) if self.toks[*ti].kind == TokKind::DocInner => {
                    facts.has_inner_doc = true;
                    *i += 1;
                }
                Some(t @ Tree::Leaf(_)) if self.text(t) == "#" => {
                    let inner = matches!(
                        trees.get(*i + 1),
                        Some(tt) if self.text(tt) == "!"
                    );
                    let attr_at = if inner { *i + 2 } else { *i + 1 };
                    let Some(Tree::Group {
                        delim: Delim::Bracket,
                        children,
                        ..
                    }) = trees.get(attr_at)
                    else {
                        return p; // stray `#`: let the item parser skip it
                    };
                    let attr = self.classify_attr(children);
                    if inner {
                        facts.cfg_test |= attr.cfg_test;
                        facts.has_inner_doc |= attr.has_doc;
                    } else {
                        p.start
                            .get_or_insert_with(|| self.toks[trees[*i].first_tok()].start);
                        p.cfg_test |= attr.cfg_test;
                        p.has_doc |= attr.has_doc;
                        p.doc_hidden |= attr.doc_hidden;
                    }
                    *i = attr_at + 1;
                }
                _ => return p,
            }
        }
    }

    /// Interprets one attribute body (the trees inside `#[ .. ]`).
    fn classify_attr(&self, children: &[Tree]) -> Prefix {
        let mut out = Prefix::default();
        let Some(head) = children.first() else {
            return out;
        };
        match self.text(head) {
            // `cfg_attr` is deliberately NOT treated as cfg(test): the
            // item itself still compiles in non-test builds.
            "cfg" => {
                if let Some(Tree::Group { children: args, .. }) = children.get(1) {
                    out.cfg_test = self.cfg_implies_test(args);
                }
            }
            "doc" => match children.get(1) {
                // #[doc(hidden)]
                Some(Tree::Group { children: args, .. }) => {
                    if args.iter().any(|a| self.text(a) == "hidden") {
                        out.doc_hidden = true;
                    } else {
                        out.has_doc = true;
                    }
                }
                // #[doc = "..."]
                _ => out.has_doc = true,
            },
            _ => {}
        }
        out
    }

    /// Whether a `cfg(..)` predicate list compiles **only** under test:
    /// `test` and `all(..)` containing a test-implying operand do;
    /// `any(..)` only when every operand does; `not(..)` never.
    fn cfg_implies_test(&self, args: &[Tree]) -> bool {
        let mut i = 0;
        while i < args.len() {
            let head = self.text(&args[i]);
            match head {
                "test" => return true,
                "all" => {
                    if let Some(Tree::Group { children, .. }) = args.get(i + 1) {
                        if self.cfg_implies_test(children) {
                            return true;
                        }
                        i += 2;
                        continue;
                    }
                }
                "any" => {
                    if let Some(Tree::Group { children, .. }) = args.get(i + 1) {
                        if self
                            .split_commas(children)
                            .iter()
                            .all(|pred| self.cfg_implies_test(pred))
                        {
                            return true;
                        }
                        i += 2;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        false
    }

    /// Splits a tree slice on top-level commas.
    fn split_commas<'t>(&self, trees: &'t [Tree]) -> Vec<&'t [Tree]> {
        let mut out = Vec::new();
        let mut start = 0;
        for (idx, t) in trees.iter().enumerate() {
            if self.text(t) == "," {
                out.push(&trees[start..idx]);
                start = idx + 1;
            }
        }
        if start < trees.len() {
            out.push(&trees[start..]);
        }
        out
    }

    /// Parses one item starting at `*i`; advances `*i` past it.
    fn parse_item(&mut self, trees: &[Tree], i: &mut usize, facts: &mut FileFacts) -> Option<Item> {
        let prefix = self.parse_prefix(trees, i, facts);
        let item_start = *i;
        if item_start >= trees.len() {
            return None;
        }

        // Visibility.
        let mut j = item_start;
        let vis = if self.text(&trees[j]) == "pub" {
            j += 1;
            if matches!(
                trees.get(j),
                Some(Tree::Group {
                    delim: Delim::Paren,
                    ..
                })
            ) {
                j += 1;
                Vis::Restricted
            } else {
                Vis::Pub
            }
        } else {
            Vis::Private
        };

        // Leading qualifiers before the item keyword.
        while matches!(
            trees.get(j).map(|t| self.text(t)),
            Some("const" | "async" | "unsafe" | "extern" | "default")
        ) {
            // `const NAME:` is a const item, not a qualifier — only treat
            // `const` as a qualifier when `fn` follows (possibly after
            // other qualifiers or an ABI string).
            if self.text(&trees[j]) == "const" && !self.is_fn_ahead(trees, j + 1) {
                break;
            }
            j += 1;
            // `extern "C"`: skip the ABI literal.
            if matches!(trees.get(j), Some(Tree::Leaf(ti)) if self.toks[*ti].kind == TokKind::StrLit)
            {
                j += 1;
            }
        }

        let kw_tree = trees.get(j)?;
        let kw = self.text(kw_tree).to_string();
        let line = self.tok(kw_tree).line;
        let start_byte = prefix
            .start
            .unwrap_or_else(|| self.toks[trees[item_start].first_tok()].start);

        let mut item = Item {
            kind: ItemKind::Other,
            name: String::new(),
            vis,
            span: (start_byte, start_byte),
            line,
            cfg_test: prefix.cfg_test,
            has_doc: prefix.has_doc,
            doc_hidden: prefix.doc_hidden,
            sig: String::new(),
            body: None,
            children: Vec::new(),
            fields: Vec::new(),
            impl_self: None,
            impl_trait: false,
            mod_inline: false,
            use_root: None,
        };

        let end_item = |this: &Self, item: &mut Item, trees: &[Tree], last: usize| {
            item.span = (start_byte, this.toks[trees[last].last_tok()].end);
        };

        match kw.as_str() {
            "mod" => {
                item.kind = ItemKind::Mod;
                item.name = self.ident_after(trees, j + 1).unwrap_or_default();
                let (end, body) = self.find_body_or_semi(trees, j + 1);
                item.mod_inline = body.is_some();
                if let Some(Tree::Group { children, .. }) = body {
                    let sub = self.parse_items(children, &mut FileFacts::default());
                    item.children = sub.items;
                }
                item.sig = self.render_range(trees, item_start, self.sig_end(trees, j + 1, end));
                end_item(self, &mut item, trees, end);
            }
            "fn" => {
                item.kind = ItemKind::Fn;
                item.name = self.ident_after(trees, j + 1).unwrap_or_default();
                let (end, body) = self.find_body_or_semi(trees, j + 1);
                if let Some(Tree::Group { open, close, .. }) = body {
                    let bs = self.toks[*open].end;
                    let be = close.map(|c| self.toks[c].start).unwrap_or(bs);
                    item.body = Some((bs, be.max(bs)));
                }
                item.sig = self.render_range(trees, item_start, self.sig_end(trees, j + 1, end));
                end_item(self, &mut item, trees, end);
            }
            "struct" | "union" => {
                item.kind = if kw == "struct" {
                    ItemKind::Struct
                } else {
                    ItemKind::Union
                };
                item.name = self.ident_after(trees, j + 1).unwrap_or_default();
                let (end, body) = self.find_body_or_semi(trees, j + 1);
                if let Some(Tree::Group {
                    delim: Delim::Brace,
                    children,
                    ..
                }) = body
                {
                    item.fields = self.parse_fields(children);
                }
                item.sig = self.render_range(trees, item_start, self.sig_end(trees, j + 1, end));
                end_item(self, &mut item, trees, end);
            }
            "enum" => {
                item.kind = ItemKind::Enum;
                item.name = self.ident_after(trees, j + 1).unwrap_or_default();
                let (end, body) = self.find_body_or_semi(trees, j + 1);
                if let Some(Tree::Group { children, .. }) = body {
                    item.fields = self.parse_variants(children);
                }
                item.sig = self.render_range(trees, item_start, self.sig_end(trees, j + 1, end));
                end_item(self, &mut item, trees, end);
            }
            "trait" => {
                item.kind = ItemKind::Trait;
                item.name = self.ident_after(trees, j + 1).unwrap_or_default();
                let (end, body) = self.find_body_or_semi(trees, j + 1);
                if let Some(Tree::Group { children, .. }) = body {
                    let sub = self.parse_items(children, &mut FileFacts::default());
                    item.children = sub.items;
                }
                item.sig = self.render_range(trees, item_start, self.sig_end(trees, j + 1, end));
                end_item(self, &mut item, trees, end);
            }
            "impl" => {
                item.kind = ItemKind::Impl;
                let (end, body) = self.find_body_or_semi(trees, j + 1);
                // `impl Trait for Type` vs `impl Type`: the self type is
                // the last path identifier before the body (after `for`
                // when present).
                let header_end = self.sig_end(trees, j + 1, end);
                let mut self_ty = None;
                let mut saw_for = false;
                for t in &trees[j + 1..=header_end.min(trees.len().saturating_sub(1))] {
                    let txt = self.text(t);
                    if txt == "for" {
                        saw_for = true;
                        self_ty = None;
                    } else if txt == "where" {
                        break;
                    } else if !txt.is_empty()
                        && matches!(t, Tree::Leaf(ti) if self.toks[*ti].kind == TokKind::Ident)
                        && !matches!(txt, "dyn" | "const" | "unsafe")
                    {
                        self_ty = Some(txt.to_string());
                    }
                }
                item.impl_trait = saw_for;
                item.impl_self = self_ty;
                if let Some(Tree::Group { children, .. }) = body {
                    let sub = self.parse_items(children, &mut FileFacts::default());
                    item.children = sub.items;
                }
                item.sig = self.render_range(trees, item_start, header_end);
                end_item(self, &mut item, trees, end);
            }
            "type" => {
                item.kind = ItemKind::TypeAlias;
                item.name = self.ident_after(trees, j + 1).unwrap_or_default();
                let end = self.find_semi(trees, j + 1);
                item.sig = self.render_range(trees, item_start, end);
                end_item(self, &mut item, trees, end);
            }
            "const" | "static" => {
                item.kind = if kw == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                let mut name_at = j + 1;
                if matches!(trees.get(name_at).map(|t| self.text(t)), Some("mut")) {
                    name_at += 1;
                }
                item.name = self.ident_after(trees, name_at).unwrap_or_default();
                let end = self.find_semi(trees, j + 1);
                // Signature: through the declared type (before `=`).
                let mut sig_end = end;
                for (idx, t) in trees.iter().enumerate().take(end + 1).skip(j + 1) {
                    if self.text(t) == "=" {
                        sig_end = idx.saturating_sub(1);
                        break;
                    }
                }
                item.sig = self.render_range(trees, item_start, sig_end);
                end_item(self, &mut item, trees, end);
            }
            "use" => {
                item.kind = ItemKind::Use;
                let end = self.find_semi(trees, j + 1);
                item.use_root = self.use_first_segment(trees, j + 1);
                item.sig = self.render_range(trees, item_start, end);
                end_item(self, &mut item, trees, end);
            }
            "extern" => {
                // `extern crate name;` (extern fns were consumed as
                // qualifiers above; a bare `extern { .. }` block lands in
                // Other).
                if matches!(trees.get(j + 1).map(|t| self.text(t)), Some("crate")) {
                    item.kind = ItemKind::ExternCrate;
                    item.name = self.ident_after(trees, j + 2).unwrap_or_default();
                    item.use_root = Some(item.name.clone());
                    let end = self.find_semi(trees, j + 1);
                    item.sig = self.render_range(trees, item_start, end);
                    end_item(self, &mut item, trees, end);
                } else {
                    let (end, _) = self.find_body_or_semi(trees, j + 1);
                    end_item(self, &mut item, trees, end);
                }
            }
            "macro_rules" => {
                item.kind = ItemKind::MacroDef;
                item.name = self.ident_after(trees, j + 2).unwrap_or_default();
                let (end, _) = self.find_body_or_semi(trees, j + 2);
                item.sig = format!("macro_rules! {}", item.name);
                end_item(self, &mut item, trees, end);
            }
            _ => {
                // Item-position macro invocation: `name! { .. }` / `name!(..);`
                let is_macro = matches!(trees.get(j + 1).map(|t| self.text(t)), Some("!"));
                if is_macro {
                    item.kind = ItemKind::MacroCall;
                    item.name = kw;
                    let (end, _) = self.find_body_or_semi(trees, j + 1);
                    end_item(self, &mut item, trees, end);
                } else {
                    // Not an item we understand: consume exactly one tree.
                    end_item(self, &mut item, trees, j);
                    *i = j + 1;
                    return if item.cfg_test { Some(item) } else { None };
                }
            }
        }

        // Advance past the consumed span.
        let consumed_end = item.span.1;
        while *i < trees.len() && self.toks[trees[*i].first_tok()].start < consumed_end {
            *i += 1;
        }
        if *i <= j {
            *i = j + 1;
        }
        Some(item)
    }

    /// True when `fn` appears at `from` after only qualifier tokens.
    fn is_fn_ahead(&self, trees: &[Tree], from: usize) -> bool {
        for t in trees.iter().skip(from).take(3) {
            match self.text(t) {
                "fn" => return true,
                "async" | "unsafe" | "extern" => continue,
                _ => {
                    if matches!(t, Tree::Leaf(ti) if self.toks[*ti].kind == TokKind::StrLit) {
                        continue; // ABI string
                    }
                    return false;
                }
            }
        }
        false
    }

    /// First plain identifier at or after `at`.
    fn ident_after(&self, trees: &[Tree], at: usize) -> Option<String> {
        for t in trees.iter().skip(at).take(3) {
            if let Tree::Leaf(ti) = t {
                if self.toks[*ti].kind == TokKind::Ident {
                    return Some(self.toks[*ti].text(self.src).to_string());
                }
            }
        }
        None
    }

    /// Scans from `from` to the item terminator: the first top-level brace
    /// group (returned) or `;`. Returns (index of last consumed tree, body).
    fn find_body_or_semi<'t>(&self, trees: &'t [Tree], from: usize) -> (usize, Option<&'t Tree>) {
        for (idx, t) in trees.iter().enumerate().skip(from) {
            match t {
                Tree::Group {
                    delim: Delim::Brace,
                    ..
                } => return (idx, Some(t)),
                _ if self.text(t) == ";" => return (idx, None),
                _ => {}
            }
        }
        (trees.len().saturating_sub(1), None)
    }

    /// Index of the terminating `;`, or the last tree.
    fn find_semi(&self, trees: &[Tree], from: usize) -> usize {
        for (idx, t) in trees.iter().enumerate().skip(from) {
            if self.text(t) == ";" {
                return idx;
            }
        }
        trees.len().saturating_sub(1)
    }

    /// Last tree index of the signature: everything before the body group
    /// (or through `end` when the item ends at a `;`).
    fn sig_end(&self, trees: &[Tree], _from: usize, end: usize) -> usize {
        if matches!(
            trees.get(end),
            Some(Tree::Group {
                delim: Delim::Brace,
                ..
            })
        ) {
            end.saturating_sub(1)
        } else {
            end
        }
    }

    /// Renders trees `[from..=to]` as a normalized one-line signature.
    fn render_range(&self, trees: &[Tree], from: usize, to: usize) -> String {
        let mut toks: Vec<usize> = Vec::new();
        for t in trees.iter().skip(from).take(to.saturating_sub(from) + 1) {
            collect_toks(t, &mut toks);
        }
        render_tokens(self.src, self.toks, &toks)
    }

    /// First path segment of a `use` declaration (after leading `::`).
    fn use_first_segment(&self, trees: &[Tree], at: usize) -> Option<String> {
        for t in trees.iter().skip(at).take(4) {
            if let Tree::Leaf(ti) = t {
                let tok = &self.toks[*ti];
                if tok.kind == TokKind::Ident {
                    return Some(tok.text(self.src).to_string());
                }
                if tok.text(self.src) != "::" {
                    return None;
                }
            }
        }
        None
    }

    /// Struct fields: `(attrs) (pub..)? name: Type,` at top level.
    fn parse_fields(&mut self, trees: &[Tree]) -> Vec<FieldInfo> {
        let mut out = Vec::new();
        for part in self.split_commas(trees) {
            if let Some(f) = self.parse_one_field(part) {
                out.push(f);
            }
        }
        out
    }

    fn parse_one_field(&mut self, part: &[Tree]) -> Option<FieldInfo> {
        let mut i = 0;
        let mut facts = FileFacts::default();
        let prefix = self.parse_prefix(part, &mut i, &mut facts);
        let mut vis = Vis::Private;
        if matches!(part.get(i).map(|t| self.text(t)), Some("pub")) {
            i += 1;
            vis = Vis::Pub;
            if matches!(
                part.get(i),
                Some(Tree::Group {
                    delim: Delim::Paren,
                    ..
                })
            ) {
                i += 1;
                vis = Vis::Restricted;
            }
        }
        let name_tree = part.get(i)?;
        let Tree::Leaf(ti) = name_tree else {
            return None;
        };
        if self.toks[*ti].kind != TokKind::Ident {
            return None;
        }
        let name = self.toks[*ti].text(self.src).to_string();
        if !matches!(part.get(i + 1).map(|t| self.text(t)), Some(":")) {
            return None;
        }
        let mut toks = Vec::new();
        for t in &part[i..] {
            collect_toks(t, &mut toks);
        }
        Some(FieldInfo {
            name,
            vis,
            has_doc: prefix.has_doc,
            sig: render_tokens(self.src, self.toks, &toks),
        })
    }

    /// Enum variants: `(attrs) Name (payload)? (= disc)?,`.
    fn parse_variants(&mut self, trees: &[Tree]) -> Vec<FieldInfo> {
        let mut out = Vec::new();
        for part in self.split_commas(trees) {
            let mut i = 0;
            let mut facts = FileFacts::default();
            let prefix = self.parse_prefix(part, &mut i, &mut facts);
            let Some(Tree::Leaf(ti)) = part.get(i) else {
                continue;
            };
            if self.toks[*ti].kind != TokKind::Ident {
                continue;
            }
            let name = self.toks[*ti].text(self.src).to_string();
            let mut toks = Vec::new();
            for t in &part[i..] {
                collect_toks(t, &mut toks);
            }
            out.push(FieldInfo {
                name,
                vis: Vis::Pub,
                has_doc: prefix.has_doc,
                sig: render_tokens(self.src, self.toks, &toks),
            });
        }
        out
    }
}

fn collect_toks(tree: &Tree, out: &mut Vec<usize>) {
    match tree {
        Tree::Leaf(i) => out.push(*i),
        Tree::Group {
            open,
            close,
            children,
            ..
        } => {
            out.push(*open);
            for c in children {
                collect_toks(c, out);
            }
            if let Some(c) = close {
                out.push(*c);
            }
        }
    }
}

/// Joins tokens into a normalized single-line rendering: spaces between
/// tokens except around `::` and after opening / before closing
/// punctuation, so `pub fn f(&mut self, n: u64) -> Vec<u8>` reads like
/// source. Doc and literal tokens render as their kind placeholder.
pub fn render_tokens(src: &str, toks: &[Tok], indices: &[usize]) -> String {
    let mut out = String::new();
    let mut prev: Option<&str> = None;
    for &i in indices {
        let t = &toks[i];
        let text: &str = match t.kind {
            TokKind::DocOuter | TokKind::DocInner => continue,
            TokKind::StrLit => "\"..\"",
            _ => t.text(src),
        };
        if text.is_empty() {
            continue;
        }
        let no_space_before = matches!(text, "," | ";" | ")" | "]" | ">" | "?" | "::" | ":" | ".")
            || (text == "(" && prev.is_some_and(is_ident_like))
            || (text == "<" && prev.is_some_and(is_ident_like))
            || (text == "!" && prev.is_some_and(is_ident_like));
        let no_space_after_prev = matches!(prev, Some("(" | "[" | "::" | "." | "&" | "<" | "#"))
            || prev.is_some_and(|p| p.starts_with('\''));
        if prev.is_some() && !no_space_before && !no_space_after_prev {
            out.push(' ');
        }
        out.push_str(text);
        prev = Some(if t.kind == TokKind::StrLit {
            "\"..\""
        } else {
            text
        });
    }
    out
}

fn is_ident_like(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c == '_' || c.is_alphanumeric())
}

/// Renders the comment/string-blanked view: code tokens are copied at
/// their byte positions, everything else (whitespace, comments, docs,
/// literal interiors) becomes spaces; newlines are preserved everywhere.
fn render_code_view(src: &str, toks: &[Tok]) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = b
        .iter()
        .map(|&c| if c == b'\n' { b'\n' } else { b' ' })
        .collect();
    for t in toks {
        match t.kind {
            TokKind::Ident
            | TokKind::Lifetime
            | TokKind::NumLit
            | TokKind::Punct
            | TokKind::Open(_)
            | TokKind::Close(_) => {
                out[t.start..t.end].copy_from_slice(&b[t.start..t.end]);
            }
            TokKind::StrLit | TokKind::DocOuter | TokKind::DocInner => {}
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| {
        // Copied ranges are whole tokens at original positions, so the
        // result is valid UTF-8; this branch is unreachable in practice.
        String::from_utf8_lossy(e.as_bytes()).into_owned()
    })
}

/// Blanks (to spaces, newlines preserved) every span of a `cfg(test)`
/// item, recursively, in `view`.
fn blank_test_spans(view: &mut String, items: &[Item]) {
    for item in items {
        if item.cfg_test {
            blank_span(view, item.span);
        } else {
            blank_test_spans(view, &item.children);
        }
    }
}

fn blank_span(view: &mut String, (start, end): (usize, usize)) {
    let end = end.min(view.len());
    if start >= end || !view.is_char_boundary(start) || !view.is_char_boundary(end) {
        return;
    }
    // Blank byte-for-byte (one space per byte, newlines preserved) so a
    // multi-byte char inside the span cannot shift later byte positions.
    let blanked: String = view[start..end]
        .bytes()
        .map(|c| if c == b'\n' { '\n' } else { ' ' })
        .collect();
    view.replace_range(start..end, &blanked);
}

/// The identifiers the file's code uses as code uses a fn: calls it
/// (`name(`, `.name(`, `name::<T>(`), names it in a path (`Type::name`,
/// `module::name`) or imports it (`use`). A `let` binding, a field or a
/// `fn` definition of the same name does not count, nor does a re-export.
fn fn_refs(src: &str, toks: &[Tok], items: &[Item]) -> Vec<String> {
    fn reexports(items: &[Item], spans: &mut Vec<(usize, usize)>) {
        for it in items {
            if it.kind == ItemKind::Use && it.vis != Vis::Private {
                spans.push(it.span);
            }
            reexports(&it.children, spans);
        }
    }
    let mut spans = Vec::new();
    reexports(items, &mut spans);
    let text = |i: usize| toks.get(i).map_or("", |t| t.text(src));
    let mut in_use = false;
    let mut set = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if spans.iter().any(|&(s, e)| s <= t.start && t.start < e) {
            continue;
        }
        let word = t.text(src);
        match t.kind {
            TokKind::Punct if word == ";" => in_use = false,
            TokKind::Ident if word == "use" => in_use = true,
            _ => {}
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map_or("", text);
        let called = prev != "fn"
            && toks
                .get(i + 1)
                .is_some_and(|next| next.kind == TokKind::Open(Delim::Paren));
        let turbofish = text(i + 1) == "::" && text(i + 2) == "<";
        if in_use || prev == "::" || called || turbofish {
            set.push(word.to_string());
        }
    }
    set.sort();
    set.dedup();
    set
}

/// One file of a [`CrateModel`] with its resolved module-tree facts.
#[derive(Debug)]
pub struct ModuleFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Module path from the crate root (empty for the root file).
    pub mod_path: Vec<String>,
    /// The whole file is test-only (its own `#![cfg(test)]`, or its
    /// `mod x;` declaration — or any ancestor's — is `#[cfg(test)]`).
    pub file_test: bool,
    /// The file's module is reachable through `pub` mods from the root.
    pub file_pub: bool,
    /// The `mod x;` declaration carries docs (counts for the module's
    /// doc coverage together with inner `//!` docs).
    pub decl_doc: bool,
    /// The parsed model.
    pub model: FileModel,
}

/// A crate's files stitched into its module tree.
#[derive(Debug, Default)]
pub struct CrateModel {
    /// Files, in the order given to [`CrateModel::build`].
    pub files: Vec<ModuleFile>,
}

impl CrateModel {
    /// Stitches per-file models into the module tree. `files` pairs each
    /// workspace-relative path with its model and its path *relative to
    /// the crate's `src/` directory* (e.g. `lib.rs`, `sched.rs`,
    /// `foo/mod.rs`, `foo/bar.rs`).
    pub fn build(files: Vec<(String, String, FileModel)>) -> Self {
        let mut entries: Vec<ModuleFile> = files
            .into_iter()
            .map(|(rel_path, src_rel, model)| ModuleFile {
                rel_path,
                mod_path: mod_path_of(&src_rel),
                file_test: model.cfg_test,
                file_pub: true,
                decl_doc: false,
                model,
            })
            .collect();
        // Resolve shallowest first so parents are final before children.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].mod_path.len());
        for &idx in &order {
            let path = entries[idx].mod_path.clone();
            if path.is_empty() {
                continue; // crate root
            }
            let (parent_path, name) = (&path[..path.len() - 1], &path[path.len() - 1]);
            let Some(parent) = entries.iter().position(|e| e.mod_path == parent_path) else {
                // No parent file (e.g. #[path] tricks): stay conservative —
                // reachable, not test.
                continue;
            };
            let (p_test, p_pub) = (entries[parent].file_test, entries[parent].file_pub);
            let decl = find_mod_decl(&entries[parent].model.items, name);
            match decl {
                Some((cfg_test, vis, has_doc)) => {
                    entries[idx].file_test |= p_test || cfg_test;
                    entries[idx].file_pub = p_pub && vis == Vis::Pub;
                    entries[idx].decl_doc = has_doc;
                }
                None => {
                    entries[idx].file_test |= p_test;
                    entries[idx].file_pub = p_pub;
                }
            }
        }
        CrateModel { files: entries }
    }

    /// Looks up a file by workspace-relative path.
    pub fn file(&self, rel_path: &str) -> Option<&ModuleFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

/// `src/`-relative path → module path (`lib.rs`/`main.rs` → root,
/// `a/b.rs` → `[a, b]`, `a/mod.rs` → `[a]`).
fn mod_path_of(src_rel: &str) -> Vec<String> {
    let no_ext = src_rel.strip_suffix(".rs").unwrap_or(src_rel);
    let mut parts: Vec<String> = no_ext.split('/').map(str::to_string).collect();
    match parts.last().map(String::as_str) {
        Some("lib") | Some("main") if parts.len() == 1 => {
            parts.pop();
        }
        Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts
}

/// Finds `mod name;` (out-of-line) among items, descending into inline
/// modules; returns (cfg_test-with-inheritance, effective vis, has_doc).
fn find_mod_decl(items: &[Item], name: &str) -> Option<(bool, Vis, bool)> {
    for item in items {
        if item.kind == ItemKind::Mod {
            if !item.mod_inline && item.name == name {
                return Some((item.cfg_test, item.vis, item.has_doc));
            }
            if item.mod_inline {
                if let Some((t, v, d)) = find_mod_decl(&item.children, name) {
                    let vis = if item.vis == Vis::Pub && v == Vis::Pub {
                        Vis::Pub
                    } else {
                        Vis::Restricted
                    };
                    return Some((t || item.cfg_test, vis, d));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items_of(src: &str) -> Vec<Item> {
        parse_file(src).model.items
    }

    #[test]
    fn fn_refs_are_calls_paths_and_imports() {
        let src = "\
use a::{imported, Kept};
pub use a::reexported;
fn defined() {
    let binding = Kept { field: 1 };
    called(binding.field);
    x.method();
    let v = turbofish::<u8>();
    let f = a::by_path;
    // commented()
}
";
        assert_eq!(
            parse_file(src).model.fn_refs,
            [
                "Kept",
                "a",
                "by_path",
                "called",
                "imported",
                "method",
                "turbofish",
                "use"
            ]
        );
    }

    #[test]
    fn kinds_names_vis_docs() {
        let src = "\
//! inner
/// Docs.
pub fn f(x: u64) -> u64 { x }
pub(crate) struct S { pub a: u64, b: String }
enum E { A, B(u8) }
pub trait T { fn m(&self); }
impl S { pub fn new() -> Self { S { a: 0, b: String::new() } } }
pub mod m { pub fn inner() {} }
pub use std::fmt::Debug;
pub const C: u64 = 3;
";
        let parsed = parse_file(src);
        assert!(parsed.model.has_inner_doc);
        let items = parsed.model.items;
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Fn,
                ItemKind::Struct,
                ItemKind::Enum,
                ItemKind::Trait,
                ItemKind::Impl,
                ItemKind::Mod,
                ItemKind::Use,
                ItemKind::Const,
            ]
        );
        assert!(items[0].has_doc && items[0].vis == Vis::Pub);
        assert_eq!(items[1].vis, Vis::Restricted);
        assert_eq!(items[1].fields.len(), 2);
        assert_eq!(items[1].fields[0].name, "a");
        assert_eq!(items[1].fields[0].vis, Vis::Pub);
        assert_eq!(items[2].fields.len(), 2);
        assert_eq!(items[4].impl_self.as_deref(), Some("S"));
        assert!(!items[4].impl_trait);
        assert_eq!(items[4].children.len(), 1);
        assert_eq!(items[5].children.len(), 1);
        assert_eq!(items[6].use_root.as_deref(), Some("std"));
        assert_eq!(items[7].name, "C");
    }

    #[test]
    fn signatures_render_normalized() {
        let src = "pub fn push(&mut self,\n  t: f64, seq: u64) -> Vec<u8> { body() }";
        let items = items_of(src);
        assert_eq!(
            items[0].sig,
            "pub fn push(&mut self, t: f64, seq: u64) -> Vec<u8>"
        );
    }

    #[test]
    fn cfg_test_detection_including_all_and_any() {
        let src = "\
#[cfg(test)] mod t1 { fn a() { x.unwrap(); } }
#[cfg(all(test, feature = \"x\"))] fn t2() { y.unwrap(); }
#[cfg(any(test, feature = \"x\"))] fn not_test_only() {}
#[cfg_attr(test, allow(dead_code))] fn still_lib() { z.unwrap(); }
";
        let items = items_of(src);
        assert!(items[0].cfg_test);
        assert!(items[1].cfg_test);
        assert!(!items[2].cfg_test);
        assert!(!items[3].cfg_test, "cfg_attr must not strip the item");
    }

    #[test]
    fn lib_view_blanks_nested_test_items() {
        let src = "\
mod outer {
    #[cfg(test)]
    mod tests { pub fn t() { a.unwrap(); } }
    pub fn lib() { b.unwrap(); }
}
";
        let parsed = parse_file(src);
        assert!(!parsed.lib_view.contains("a.unwrap"));
        assert!(parsed.lib_view.contains("b.unwrap"));
        assert_eq!(parsed.lib_view.len(), src.len());
    }

    #[test]
    fn lib_view_blanking_preserves_byte_positions_across_multibyte_chars() {
        let src = "\
#[cfg(test)]
fn tëst() { αβ.unwrap(); }
pub fn keep() { c.unwrap(); }
";
        let parsed = parse_file(src);
        assert_eq!(parsed.lib_view.len(), src.len());
        assert_eq!(
            src.find("c.unwrap").expect("in src"),
            parsed.lib_view.find("c.unwrap").expect("in view"),
            "blanking a multi-byte span must not shift later positions"
        );
    }

    #[test]
    fn trait_impl_vs_inherent() {
        let items = items_of("impl fmt::Display for Spec { fn fmt(&self) {} }");
        assert!(items[0].impl_trait);
        assert_eq!(items[0].impl_self.as_deref(), Some("Spec"));
    }

    #[test]
    fn module_tree_stitching() {
        let root = parse_file(
            "#[cfg(test)] mod testutil; pub mod api; mod private; /// doc\npub mod documented;",
        )
        .model;
        let sub = parse_file("pub fn f() {}").model;
        let cm = CrateModel::build(vec![
            ("src/lib.rs".into(), "lib.rs".into(), root),
            ("src/testutil.rs".into(), "testutil.rs".into(), sub.clone()),
            ("src/api.rs".into(), "api.rs".into(), sub.clone()),
            ("src/private.rs".into(), "private.rs".into(), sub.clone()),
            ("src/documented.rs".into(), "documented.rs".into(), sub),
        ]);
        let f = |p: &str| cm.file(p).expect(p);
        assert!(f("src/testutil.rs").file_test);
        assert!(!f("src/api.rs").file_test && f("src/api.rs").file_pub);
        assert!(!f("src/private.rs").file_pub);
        assert!(f("src/documented.rs").decl_doc);
    }

    #[test]
    fn doc_hidden_is_tracked() {
        let items = items_of("#[doc(hidden)] pub fn internal() {}");
        assert!(items[0].doc_hidden);
        let items = items_of("#[doc = \"attr docs\"] pub fn d() {}");
        assert!(items[0].has_doc);
    }
}
