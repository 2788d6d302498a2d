//! Dead-API fixture: public fns that other source files name in code
//! are alive; the rest are dead, whatever this file says about them.
#![forbid(unsafe_code)]

/// Named only in this file: dead.
pub fn only_here() -> u32 {
    1
}

/// Named in another crate's `src/`.
pub fn from_peer_src() -> u32 {
    only_here()
}

/// Named in this crate's `tests/`.
pub fn from_crate_test() -> u32 {
    2
}

/// Named in this crate's `examples/`.
pub fn from_example() -> u32 {
    3
}

/// Named in the root `tests/`.
pub fn from_root_test() -> u32 {
    4
}

/// Named in `perfbench/src/`.
pub fn from_perfbench() -> u32 {
    5
}

/// Named elsewhere only in a comment: dead.
pub fn in_comment() -> u32 {
    6
}

/// Named elsewhere only in a string: dead.
pub fn in_string() -> u32 {
    7
}

/// Named elsewhere only in a doc-test: dead.
pub fn in_doctest() -> u32 {
    8
}

/// Named elsewhere only in a `pub use`: dead.
pub fn reexported() -> u32 {
    9
}

/// Named elsewhere only by a `let` binding: dead.
pub fn in_binding() -> u32 {
    11
}

/// Named elsewhere only by a struct field: dead.
pub fn in_field() -> u32 {
    12
}

/// Named elsewhere only in a path, as a fn value.
pub fn by_path() -> u32 {
    13
}

/// Named elsewhere only in a `use`, then as a bare fn value.
pub fn imported() -> u32 {
    14
}

/// Named only here, but crate-visible: not public API.
pub(crate) fn internal() -> u32 {
    10
}

/// A shape.
pub trait Shape {
    /// Named only here, but a trait method: not counted.
    fn area(&self) -> u32;
}

/// A widget.
pub struct Widget;

impl Shape for Widget {
    fn area(&self) -> u32 {
        internal()
    }
}

impl Widget {
    /// Named in another crate's `src/`.
    pub fn live(&self) -> u32 {
        only_here()
    }

    /// Named only in this file: dead.
    pub fn dead_method(&self) -> u32 {
        self.area()
            + in_comment()
            + in_string()
            + in_doctest()
            + reexported()
            + in_binding()
            + in_field()
    }
}
