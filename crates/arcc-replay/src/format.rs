//! The `arcc-fault-log v1` text format: a fleet inventory plus per-DIMM
//! observed fault streams, SC'12 field-study style.
//!
//! One log is a line-oriented text document:
//!
//! ```text
//! arcc-fault-log v1
//! years 7
//! class paper_1x 4 4              # name, scrub hours, machine cores
//! dimm ch00000000 paper_1x        # inventory entry: id, class
//! fault ch00000000 123.5 bit T 0 12 3 1007 55
//! end
//! ```
//!
//! A `fault` line carries, in order: the DIMM id, the arrival time in
//! hours (written with Rust's shortest-round-trip float formatting, so
//! `to_text` → [`FaultLog::parse`] is bit-exact), the mode token
//! (`bit word column row bank device lane`), `T`ransient or `P`ermanent,
//! the rank (`*` for lane faults, which hit every rank), the device
//! position, and the bank / row / column selectors of the blast radius
//! (`*` = all, `h0`/`h1` = half, or an index).
//!
//! The parser is strict: every structural error — unknown tokens,
//! duplicate ids, out-of-order per-DIMM timestamps, times outside the
//! horizon, truncation (a missing `end` marker), an empty inventory — is
//! a typed [`LogError`], never a panic and never a silent best-effort
//! parse. `#` comments and blank lines are allowed. Fields are split on
//! Unicode whitespace (`char::is_whitespace`, so `\r\n` line ends are
//! accepted), a `#` starts a comment anywhere, even inside a field, and
//! numbers are read with Rust's `str::parse` (so `+7`, `1e3` and `inf`
//! are read) and then range-checked.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use arcc_faults::{AddressSet, DimSel, FaultEvent, FaultGeometry, FaultMode, HOURS_PER_YEAR};
use arcc_fleet::{DimmPopulation, FleetSpec, ReplayArrivals, ReplayError};

/// The version header every log starts with.
pub const LOG_HEADER: &str = "arcc-fault-log v1";

/// Mode-name tokens of the format, in [`FaultMode::ALL`] order.
const MODE_TOKENS: [&str; 7] = ["bit", "word", "column", "row", "bank", "device", "lane"];

/// The mode a [`MODE_TOKENS`] token names.
fn mode_from_token(token: &str) -> Option<FaultMode> {
    Some(match token {
        "bit" => FaultMode::SingleBit,
        "word" => FaultMode::SingleWord,
        "column" => FaultMode::SingleColumn,
        "row" => FaultMode::SingleRow,
        "bank" => FaultMode::SingleBank,
        "device" => FaultMode::MultiBank,
        "lane" => FaultMode::MultiRank,
        _ => return None,
    })
}

/// Most fields a directive takes: a `fault` line's ten.
const MAX_FIELDS: usize = 10;

/// One line's whitespace-separated fields, its `#` comment cut off.
#[derive(Default)]
struct Fields<'a> {
    /// The first [`MAX_FIELDS`] fields, as slices of the log text.
    tok: [&'a str; MAX_FIELDS],
    /// How many fields the line has in all.
    len: usize,
}

impl<'a> Fields<'a> {
    /// Appends a field; one past [`MAX_FIELDS`] is only counted, which is
    /// all the arity checks need.
    fn push(&mut self, field: &'a str) {
        if let Some(slot) = self.tok.get_mut(self.len) {
            *slot = field;
        }
        self.len += 1;
    }

    /// Splits the line of `text` that starts at byte `start` into the
    /// fields of `line.split('#').next().split_whitespace()`, and returns
    /// where the next line starts. An ASCII line is split byte by byte;
    /// one with a byte >= 0x80 goes to `str::split_whitespace`, which
    /// also splits on Unicode whitespace such as U+00A0. Every cut falls
    /// on an ASCII byte, so every slice is on a char boundary.
    fn split_line(&mut self, text: &'a str, start: usize) -> usize {
        self.len = 0;
        let bytes = text.as_bytes();
        let mut field = start;
        let mut i = start;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'\n' | b'#' => break,
                // ASCII whitespace to `char::is_whitespace`, which unlike
                // `u8::is_ascii_whitespace` includes the vertical tab.
                b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C' => {
                    if field < i {
                        self.push(&text[field..i]);
                    }
                    field = i + 1;
                }
                0x80.. => {
                    self.len = 0;
                    let end = bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n' || b == b'#')
                        .map_or(bytes.len(), |k| i + k);
                    text[start..end]
                        .split_whitespace()
                        .for_each(|f| self.push(f));
                    return next_line(bytes, end);
                }
                _ => {}
            }
            i += 1;
        }
        if field < i {
            self.push(&text[field..i]);
        }
        next_line(bytes, i)
    }
}

/// Where the line holding byte `i` ends: just past its `\n`, or at the
/// end of the text.
fn next_line(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |k| i + k + 1)
}

/// One population class of the inventory (scrub cadence and machine
/// shape; the channel geometry of format v1 is fixed to the paper's
/// 2x36-device channel).
#[derive(Debug, Clone, PartialEq)]
pub struct LogClass {
    /// Class name (referenced by `dimm` lines).
    pub name: String,
    /// Scrub (detection/upgrade) period in hours.
    pub scrub_interval_h: f64,
    /// Cores per machine attached to this class's channels.
    pub cores: u32,
}

/// One inventory entry: a DIMM (memory channel) and its class.
#[derive(Debug, Clone, PartialEq)]
pub struct LogDimm {
    /// Unique id token.
    pub id: String,
    /// Index into [`FaultLog::classes`].
    pub class: u32,
}

/// A parsed (and therefore validated) fleet fault log.
///
/// Equality compares the four public fields only.
#[derive(Debug, Clone)]
pub struct FaultLog {
    /// Observation horizon in years.
    pub years: f64,
    /// Population classes, in declaration order.
    pub classes: Vec<LogClass>,
    /// Inventory, in declaration order — the declaration index *is* the
    /// channel id a replay run assigns the DIMM.
    pub dimms: Vec<LogDimm>,
    /// Observed faults as `(dimm index, event)` in file order; per-DIMM
    /// times are non-decreasing (the validator enforces it).
    pub faults: Vec<(u32, FaultEvent)>,
    /// Indices into `dimms`, sorted by id: what
    /// [`FaultLog::append_segment`] checks a segment's ids against. That
    /// method rebuilds it whenever its length disagrees with `dimms`, so
    /// a log built or grown through the public fields needs no upkeep;
    /// an id edited in place, though, leaves it stale.
    pub(crate) id_index: Vec<u32>,
}

impl PartialEq for FaultLog {
    fn eq(&self, other: &Self) -> bool {
        self.years == other.years
            && self.classes == other.classes
            && self.dimms == other.dimms
            && self.faults == other.faults
    }
}

/// Typed errors of the strict log parser/validator.
#[derive(Debug, Clone, PartialEq)]
pub enum LogError {
    /// The first line was not [`LOG_HEADER`].
    BadHeader(String),
    /// A structurally malformed line (wrong directive, arity, or field).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// A `fault` line used a mode token outside the format's vocabulary.
    UnknownMode {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `dimm` line referenced an undeclared class.
    UnknownClass {
        /// 1-based line number.
        line: usize,
        /// The missing class name.
        name: String,
    },
    /// A `fault` line referenced an undeclared DIMM.
    UnknownDimm {
        /// 1-based line number.
        line: usize,
        /// The missing DIMM id.
        id: String,
    },
    /// A class name was declared twice.
    DuplicateClass {
        /// 1-based line number.
        line: usize,
        /// The repeated name.
        name: String,
    },
    /// A DIMM id was declared twice.
    DuplicateDimm {
        /// 1-based line number.
        line: usize,
        /// The repeated id.
        id: String,
    },
    /// A DIMM's fault stream went backwards in time.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
        /// The offending DIMM.
        id: String,
        /// This fault's timestamp.
        time_h: f64,
        /// The DIMM's previous timestamp.
        previous_h: f64,
    },
    /// A fault timestamp was negative, non-finite, or past the horizon.
    TimeOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending timestamp.
        time_h: f64,
        /// The log's horizon in hours.
        horizon_h: f64,
    },
    /// The log ended without the `end` marker (truncated write).
    Truncated,
    /// Content after the `end` marker.
    TrailingContent {
        /// 1-based line number.
        line: usize,
    },
    /// The log declares no DIMMs: nothing to replay.
    Empty,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::BadHeader(got) => {
                write!(f, "bad header {got:?} (expected {LOG_HEADER:?})")
            }
            LogError::Syntax { line, what } => write!(f, "line {line}: {what}"),
            LogError::UnknownMode { line, token } => {
                write!(f, "line {line}: unknown fault mode {token:?}")
            }
            LogError::UnknownClass { line, name } => {
                write!(f, "line {line}: unknown class {name:?}")
            }
            LogError::UnknownDimm { line, id } => {
                write!(f, "line {line}: fault for undeclared dimm {id:?}")
            }
            LogError::DuplicateClass { line, name } => {
                write!(f, "line {line}: duplicate class {name:?}")
            }
            LogError::DuplicateDimm { line, id } => {
                write!(f, "line {line}: duplicate dimm {id:?}")
            }
            LogError::OutOfOrder {
                line,
                id,
                time_h,
                previous_h,
            } => write!(
                f,
                "line {line}: dimm {id:?} fault at {time_h}h precedes its previous \
                 fault at {previous_h}h"
            ),
            LogError::TimeOutOfRange {
                line,
                time_h,
                horizon_h,
            } => write!(
                f,
                "line {line}: fault time {time_h}h outside [0, {horizon_h}h)"
            ),
            LogError::Truncated => write!(f, "missing end marker (truncated log)"),
            LogError::TrailingContent { line } => {
                write!(f, "line {line}: content after end marker")
            }
            LogError::Empty => write!(f, "log declares no dimms"),
        }
    }
}

impl std::error::Error for LogError {}

fn sel_token(sel: &DimSel) -> String {
    match sel {
        DimSel::All => "*".to_string(),
        DimSel::Half(k) => format!("h{k}"),
        DimSel::One(k) => k.to_string(),
    }
}

fn parse_sel(token: &str, line: usize, dim: &str, size: u64) -> Result<DimSel, LogError> {
    if token == "*" {
        return Ok(DimSel::All);
    }
    if let Some(half) = token.strip_prefix('h') {
        let k: u64 = half.parse().map_err(|_| LogError::Syntax {
            line,
            what: format!("bad {dim} half-selector {token:?}"),
        })?;
        if k > 1 {
            return Err(LogError::Syntax {
                line,
                what: format!("{dim} half-selector {token:?} must be h0 or h1"),
            });
        }
        return Ok(DimSel::Half(k));
    }
    let k: u64 = token.parse().map_err(|_| LogError::Syntax {
        line,
        what: format!("bad {dim} selector {token:?}"),
    })?;
    if k >= size {
        return Err(LogError::Syntax {
            line,
            what: format!("{dim} index {k} out of range (< {size})"),
        });
    }
    Ok(DimSel::One(k))
}

impl FaultLog {
    /// The geometry every v1 log describes (the paper channel; a future
    /// format revision would carry geometry per class).
    pub fn geometry() -> FaultGeometry {
        FaultGeometry::paper_channel()
    }

    /// Observation horizon in hours.
    pub fn horizon_hours(&self) -> f64 {
        self.years * HOURS_PER_YEAR
    }

    /// Observed faults per class, indexed like [`Self::classes`].
    pub fn class_fault_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.classes.len()];
        for (dimm, _) in &self.faults {
            counts[self.dimms[*dimm as usize].class as usize] += 1;
        }
        counts
    }

    /// DIMMs per class, indexed like [`Self::classes`].
    pub fn class_dimm_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.classes.len()];
        for d in &self.dimms {
            counts[d.class as usize] += 1;
        }
        counts
    }

    /// Serialises to the `arcc-fault-log v1` text format. Float fields
    /// use Rust's shortest-round-trip formatting, so
    /// `FaultLog::parse(&log.to_text())` reproduces the log bit-exactly
    /// for any log that satisfies the validator's invariants — which is
    /// every log obtained from [`Self::parse`] or the generator.
    /// Hand-constructed logs that violate them (whitespace or `#` in
    /// ids, a `rank: None` on a non-lane mode, half-selectors outside
    /// the column dimension) serialise without error but are *rejected*
    /// by the strict parser on the way back in, by design: the parser,
    /// not the writer, is the format's gatekeeper.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(LOG_HEADER);
        out.push('\n');
        out.push_str(&format!("years {}\n", self.years));
        for c in &self.classes {
            out.push_str(&format!(
                "class {} {} {}\n",
                c.name, c.scrub_interval_h, c.cores
            ));
        }
        for d in &self.dimms {
            out.push_str(&format!(
                "dimm {} {}\n",
                d.id, self.classes[d.class as usize].name
            ));
        }
        for (dimm, ev) in &self.faults {
            let mode = MODE_TOKENS[ev.mode as usize];
            let rank = ev.rank.map_or_else(|| "*".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "fault {} {} {mode} {} {rank} {} {} {} {}\n",
                self.dimms[*dimm as usize].id,
                ev.time_h,
                if ev.transient { "T" } else { "P" },
                ev.device_pos,
                sel_token(&ev.set.banks),
                sel_token(&ev.set.rows),
                sel_token(&ev.set.cols),
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parses and validates a log, in one pass over the text that
    /// allocates per line only the `String`s the log keeps.
    ///
    /// # Errors
    ///
    /// A typed [`LogError`] for any structural or semantic violation (see
    /// the enum); the parser never panics on any input.
    pub fn parse(text: &str) -> Result<Self, LogError> {
        Self::parse_counted(text).map(|(log, _)| log)
    }

    /// [`Self::parse`], also returning how many lines it walked: on
    /// success, `text.lines().count()`.
    pub(crate) fn parse_counted(text: &str) -> Result<(Self, usize), LogError> {
        let geometry = Self::geometry();
        let (header, mut next) = match text.find('\n') {
            Some(at) => (&text[..at], at + 1),
            None => (text, text.len()),
        };
        let header = header.trim();
        if header != LOG_HEADER {
            return Err(LogError::BadHeader(header.to_string()));
        }
        let mut log = FaultLog {
            years: 0.0,
            classes: Vec::new(),
            dimms: Vec::new(),
            faults: Vec::new(),
            id_index: Vec::new(),
        };
        // Name-to-index maps over slices of `text`. Ids come from the
        // network, so they keep the default (DoS-resistant) hasher. The id
        // map gets one slot per 32 bytes of text, which holds a generated
        // log (about 47 bytes per DIMM, faults included) without a rehash.
        // The log's own vectors are left to grow: a parsed segment may
        // become a log that appends grow, and a capacity guessed from the
        // text would make them double past what they need.
        let mut class_index: HashMap<&str, u32> = HashMap::new();
        let mut dimm_index: HashMap<&str, u32> = HashMap::with_capacity(text.len() / 32);
        // One-entry caches in front of the maps: the previous `dimm`
        // line's class and the previous fault's DIMM. `to_text` writes a
        // DIMM's faults together, so every fault after its first hits.
        let mut last_class: Option<(&str, u32)> = None;
        let mut last_dimm: Option<(&str, u32)> = None;
        let mut last_time: Vec<f64> = Vec::new();
        let mut seen_years = false;
        let mut complete = false;
        let mut fields = Fields::default();
        let mut line = 1; // 1-based; the header was line 1
        while next < text.len() {
            line += 1;
            next = fields.split_line(text, next);
            if fields.len == 0 {
                continue;
            }
            if complete {
                return Err(LogError::TrailingContent { line });
            }
            let f = &fields.tok;
            let n = fields.len;
            let syntax = |what: String| LogError::Syntax { line, what };
            match f[0] {
                "years" => {
                    if seen_years {
                        return Err(syntax("duplicate years directive".to_string()));
                    }
                    if n != 2 {
                        return Err(syntax("years takes one value".to_string()));
                    }
                    let years: f64 = f[1]
                        .parse()
                        .map_err(|_| syntax(format!("bad years {:?}", f[1])))?;
                    if !years.is_finite() || years <= 0.0 {
                        return Err(syntax(format!("years must be positive, got {years}")));
                    }
                    log.years = years;
                    seen_years = true;
                }
                "class" => {
                    if n != 4 {
                        return Err(syntax("class takes: name scrub_h cores".to_string()));
                    }
                    let Entry::Vacant(slot) = class_index.entry(f[1]) else {
                        return Err(LogError::DuplicateClass {
                            line,
                            name: f[1].to_string(),
                        });
                    };
                    let scrub: f64 = f[2]
                        .parse()
                        .map_err(|_| syntax(format!("bad scrub hours {:?}", f[2])))?;
                    if !scrub.is_finite() || scrub <= 0.0 {
                        return Err(syntax(format!("scrub hours must be positive, got {scrub}")));
                    }
                    let cores: u32 = f[3]
                        .parse()
                        .map_err(|_| syntax(format!("bad core count {:?}", f[3])))?;
                    if cores == 0 {
                        return Err(syntax("core count must be positive".to_string()));
                    }
                    slot.insert(log.classes.len() as u32);
                    log.classes.push(LogClass {
                        name: f[1].to_string(),
                        scrub_interval_h: scrub,
                        cores,
                    });
                }
                "dimm" => {
                    if n != 3 {
                        return Err(syntax("dimm takes: id class".to_string()));
                    }
                    let Entry::Vacant(slot) = dimm_index.entry(f[1]) else {
                        return Err(LogError::DuplicateDimm {
                            line,
                            id: f[1].to_string(),
                        });
                    };
                    let class = match last_class {
                        Some((name, class)) if name == f[2] => class,
                        _ => {
                            let class =
                                *class_index
                                    .get(f[2])
                                    .ok_or_else(|| LogError::UnknownClass {
                                        line,
                                        name: f[2].to_string(),
                                    })?;
                            last_class = Some((f[2], class));
                            class
                        }
                    };
                    slot.insert(log.dimms.len() as u32);
                    last_time.push(0.0);
                    log.dimms.push(LogDimm {
                        id: f[1].to_string(),
                        class,
                    });
                }
                "fault" => {
                    if !seen_years {
                        return Err(syntax("fault before the years directive".to_string()));
                    }
                    if n != 10 {
                        return Err(syntax(
                            "fault takes: dimm time mode T|P rank device banks rows cols"
                                .to_string(),
                        ));
                    }
                    let dimm = match last_dimm {
                        Some((id, dimm)) if id == f[1] => dimm,
                        _ => {
                            let dimm =
                                *dimm_index.get(f[1]).ok_or_else(|| LogError::UnknownDimm {
                                    line,
                                    id: f[1].to_string(),
                                })?;
                            last_dimm = Some((f[1], dimm));
                            dimm
                        }
                    };
                    let time_h: f64 = f[2]
                        .parse()
                        .map_err(|_| syntax(format!("bad time {:?}", f[2])))?;
                    let horizon_h = log.horizon_hours();
                    if !time_h.is_finite() || time_h < 0.0 || time_h >= horizon_h {
                        return Err(LogError::TimeOutOfRange {
                            line,
                            time_h,
                            horizon_h,
                        });
                    }
                    let previous_h = last_time[dimm as usize];
                    if time_h < previous_h {
                        return Err(LogError::OutOfOrder {
                            line,
                            id: f[1].to_string(),
                            time_h,
                            previous_h,
                        });
                    }
                    let mode = mode_from_token(f[3]).ok_or_else(|| LogError::UnknownMode {
                        line,
                        token: f[3].to_string(),
                    })?;
                    let transient = match f[4] {
                        "T" => true,
                        "P" => false,
                        other => {
                            return Err(syntax(format!("expected T or P, got {other:?}")));
                        }
                    };
                    let rank = match f[5] {
                        "*" => {
                            if mode != FaultMode::MultiRank {
                                return Err(syntax(format!(
                                    "rank * is reserved for lane faults, mode is {:?}",
                                    f[3]
                                )));
                            }
                            None
                        }
                        tok => {
                            if mode == FaultMode::MultiRank {
                                return Err(syntax(
                                    "lane faults hit every rank: use rank *".to_string(),
                                ));
                            }
                            let r: u32 = tok
                                .parse()
                                .map_err(|_| syntax(format!("bad rank {tok:?}")))?;
                            if r >= geometry.ranks {
                                return Err(syntax(format!(
                                    "rank {r} out of range (< {})",
                                    geometry.ranks
                                )));
                            }
                            Some(r)
                        }
                    };
                    let device_pos: u32 = f[6]
                        .parse()
                        .map_err(|_| syntax(format!("bad device {:?}", f[6])))?;
                    if device_pos >= geometry.devices_per_rank {
                        return Err(syntax(format!(
                            "device {device_pos} out of range (< {})",
                            geometry.devices_per_rank
                        )));
                    }
                    let banks = parse_sel(f[7], line, "bank", geometry.banks)?;
                    let rows = parse_sel(f[8], line, "row", geometry.rows)?;
                    let cols = parse_sel(f[9], line, "column", geometry.cols)?;
                    if matches!(banks, DimSel::Half(_)) || matches!(rows, DimSel::Half(_)) {
                        return Err(syntax(
                            "half-selectors are only meaningful for columns".to_string(),
                        ));
                    }
                    last_time[dimm as usize] = time_h;
                    log.faults.push((
                        dimm,
                        FaultEvent {
                            time_h,
                            mode,
                            transient,
                            rank,
                            device_pos,
                            set: AddressSet { banks, rows, cols },
                        },
                    ));
                }
                "end" => {
                    if n != 1 {
                        return Err(syntax("end takes no fields".to_string()));
                    }
                    complete = true;
                }
                other => {
                    return Err(syntax(format!("unknown directive {other:?}")));
                }
            }
        }
        if !complete {
            return Err(LogError::Truncated);
        }
        if !seen_years {
            return Err(LogError::Syntax {
                line: 0,
                what: "missing years directive".to_string(),
            });
        }
        if log.dimms.is_empty() {
            return Err(LogError::Empty);
        }
        Ok((log, line))
    }

    /// [`Self::parse`] with parse metrics: on success, records
    /// `replay.parse.lines` (raw lines scanned, comments and blanks
    /// included), `replay.parse.classes`, `replay.parse.dimms`, and
    /// `replay.parse.faults` counters into `rec`. Failed parses record
    /// nothing, so a snapshot only ever counts validated content —
    /// which keeps the counters deterministic functions of the ingested
    /// log, independent of rejected inputs.
    ///
    /// # Errors
    ///
    /// Exactly as [`Self::parse`].
    pub fn parse_recorded(text: &str, rec: &mut dyn arcc_obs::Recorder) -> Result<Self, LogError> {
        let (log, lines) = Self::parse_counted(text)?;
        rec.counter_add("replay.parse.lines", lines as u64);
        rec.counter_add("replay.parse.classes", log.classes.len() as u64);
        rec.counter_add("replay.parse.dimms", log.dimms.len() as u64);
        rec.counter_add("replay.parse.faults", log.faults.len() as u64);
        Ok(log)
    }

    /// The log's arrival streams in the engine's [`ReplayArrivals`]
    /// layout: DIMM declaration order is channel order, class index is
    /// population index.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplayError`] from the arrival-set constructor (a
    /// parsed log always satisfies its invariants; hand-built logs may
    /// not).
    pub fn arrivals(&self) -> Result<ReplayArrivals, ReplayError> {
        let populations: Vec<u32> = self.dimms.iter().map(|d| d.class).collect();
        let mut per_channel: Vec<Vec<FaultEvent>> = vec![Vec::new(); self.dimms.len()];
        for (dimm, ev) in &self.faults {
            per_channel[*dimm as usize].push(*ev);
        }
        ReplayArrivals::new(populations, per_channel)
    }

    /// A [`FleetSpec`] describing this log's fleet for a replay run:
    /// channels = DIMM count, one population per class (weight = DIMM
    /// share, scrub/cores from the class, rate multiplier left at 1 —
    /// replay draws nothing). Pair with [`Self::arrivals`] and
    /// [`arcc_fleet::run_replay`]; adjust policy/scheduler via the
    /// builder. Use `arcc_replay::fit_spec` instead when you want a
    /// *synthetic* fleet calibrated to the log.
    pub fn replay_spec(&self, seed: u64) -> FleetSpec {
        let dimm_counts = self.class_dimm_counts();
        let populations: Vec<DimmPopulation> = self
            .classes
            .iter()
            .zip(&dimm_counts)
            .map(|(c, &count)| DimmPopulation {
                name: c.name.clone(),
                // Weight only drives the synthetic hash assignment, which
                // replay overrides; keep it positive for empty classes.
                weight: (count.max(1)) as f64,
                geometry: Self::geometry(),
                rate_multiplier: 1.0,
                scrub_interval_h: c.scrub_interval_h,
                cores: c.cores,
                scheme: arcc_fleet::DEFAULT_SCHEME.to_string(),
                large_fault_multiplier: 1.0,
            })
            .collect();
        FleetSpec::baseline(self.dimms.len() as u64)
            .years(self.years)
            .seed(seed)
            .populations(populations)
    }
}

/// The line-by-line parser this module's scanner replaced, kept as the
/// oracle of the differential test in `tests`. It is the old code
/// verbatim, except that its three eager `ok_or` error values are built
/// lazily (`ok_or_else`), which changes no result.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn parse(text: &str) -> Result<FaultLog, LogError> {
        let geometry = FaultLog::geometry();
        let mut lines = text.lines().enumerate();
        let header = lines.next().map(|(_, l)| l.trim()).unwrap_or_default();
        if header != LOG_HEADER {
            return Err(LogError::BadHeader(header.to_string()));
        }
        let mut log = FaultLog {
            years: 0.0,
            classes: Vec::new(),
            dimms: Vec::new(),
            faults: Vec::new(),
            id_index: Vec::new(),
        };
        let mut class_index: HashMap<String, u32> = HashMap::new();
        let mut dimm_index: HashMap<String, u32> = HashMap::new();
        let mut last_time: Vec<f64> = Vec::new();
        let mut seen_years = false;
        let mut complete = false;
        for (i, raw) in lines {
            let line = i + 1; // 1-based
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            if complete {
                return Err(LogError::TrailingContent { line });
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            let syntax = |what: String| LogError::Syntax { line, what };
            match fields[0] {
                "years" => {
                    if seen_years {
                        return Err(syntax("duplicate years directive".to_string()));
                    }
                    if fields.len() != 2 {
                        return Err(syntax("years takes one value".to_string()));
                    }
                    let years: f64 = fields[1]
                        .parse()
                        .map_err(|_| syntax(format!("bad years {:?}", fields[1])))?;
                    if !years.is_finite() || years <= 0.0 {
                        return Err(syntax(format!("years must be positive, got {years}")));
                    }
                    log.years = years;
                    seen_years = true;
                }
                "class" => {
                    if fields.len() != 4 {
                        return Err(syntax("class takes: name scrub_h cores".to_string()));
                    }
                    let name = fields[1].to_string();
                    if class_index.contains_key(&name) {
                        return Err(LogError::DuplicateClass { line, name });
                    }
                    let scrub: f64 = fields[2]
                        .parse()
                        .map_err(|_| syntax(format!("bad scrub hours {:?}", fields[2])))?;
                    if !scrub.is_finite() || scrub <= 0.0 {
                        return Err(syntax(format!("scrub hours must be positive, got {scrub}")));
                    }
                    let cores: u32 = fields[3]
                        .parse()
                        .map_err(|_| syntax(format!("bad core count {:?}", fields[3])))?;
                    if cores == 0 {
                        return Err(syntax("core count must be positive".to_string()));
                    }
                    class_index.insert(name.clone(), log.classes.len() as u32);
                    log.classes.push(LogClass {
                        name,
                        scrub_interval_h: scrub,
                        cores,
                    });
                }
                "dimm" => {
                    if fields.len() != 3 {
                        return Err(syntax("dimm takes: id class".to_string()));
                    }
                    let id = fields[1].to_string();
                    if dimm_index.contains_key(&id) {
                        return Err(LogError::DuplicateDimm { line, id });
                    }
                    let class =
                        *class_index
                            .get(fields[2])
                            .ok_or_else(|| LogError::UnknownClass {
                                line,
                                name: fields[2].to_string(),
                            })?;
                    dimm_index.insert(id.clone(), log.dimms.len() as u32);
                    last_time.push(0.0);
                    log.dimms.push(LogDimm { id, class });
                }
                "fault" => {
                    if !seen_years {
                        return Err(syntax("fault before the years directive".to_string()));
                    }
                    if fields.len() != 10 {
                        return Err(syntax(
                            "fault takes: dimm time mode T|P rank device banks rows cols"
                                .to_string(),
                        ));
                    }
                    let dimm = *dimm_index
                        .get(fields[1])
                        .ok_or_else(|| LogError::UnknownDimm {
                            line,
                            id: fields[1].to_string(),
                        })?;
                    let time_h: f64 = fields[2]
                        .parse()
                        .map_err(|_| syntax(format!("bad time {:?}", fields[2])))?;
                    let horizon_h = log.horizon_hours();
                    if !time_h.is_finite() || time_h < 0.0 || time_h >= horizon_h {
                        return Err(LogError::TimeOutOfRange {
                            line,
                            time_h,
                            horizon_h,
                        });
                    }
                    let previous_h = last_time[dimm as usize];
                    if time_h < previous_h {
                        return Err(LogError::OutOfOrder {
                            line,
                            id: fields[1].to_string(),
                            time_h,
                            previous_h,
                        });
                    }
                    let mode = MODE_TOKENS
                        .iter()
                        .position(|t| *t == fields[3])
                        .map(|i| FaultMode::ALL[i])
                        .ok_or_else(|| LogError::UnknownMode {
                            line,
                            token: fields[3].to_string(),
                        })?;
                    let transient = match fields[4] {
                        "T" => true,
                        "P" => false,
                        other => {
                            return Err(syntax(format!("expected T or P, got {other:?}")));
                        }
                    };
                    let rank = match fields[5] {
                        "*" => {
                            if mode != FaultMode::MultiRank {
                                return Err(syntax(format!(
                                    "rank * is reserved for lane faults, mode is {:?}",
                                    fields[3]
                                )));
                            }
                            None
                        }
                        tok => {
                            if mode == FaultMode::MultiRank {
                                return Err(syntax(
                                    "lane faults hit every rank: use rank *".to_string(),
                                ));
                            }
                            let r: u32 = tok
                                .parse()
                                .map_err(|_| syntax(format!("bad rank {tok:?}")))?;
                            if r >= geometry.ranks {
                                return Err(syntax(format!(
                                    "rank {r} out of range (< {})",
                                    geometry.ranks
                                )));
                            }
                            Some(r)
                        }
                    };
                    let device_pos: u32 = fields[6]
                        .parse()
                        .map_err(|_| syntax(format!("bad device {:?}", fields[6])))?;
                    if device_pos >= geometry.devices_per_rank {
                        return Err(syntax(format!(
                            "device {device_pos} out of range (< {})",
                            geometry.devices_per_rank
                        )));
                    }
                    let banks = parse_sel(fields[7], line, "bank", geometry.banks)?;
                    let rows = parse_sel(fields[8], line, "row", geometry.rows)?;
                    let cols = parse_sel(fields[9], line, "column", geometry.cols)?;
                    if matches!(banks, DimSel::Half(_)) || matches!(rows, DimSel::Half(_)) {
                        return Err(syntax(
                            "half-selectors are only meaningful for columns".to_string(),
                        ));
                    }
                    last_time[dimm as usize] = time_h;
                    log.faults.push((
                        dimm,
                        FaultEvent {
                            time_h,
                            mode,
                            transient,
                            rank,
                            device_pos,
                            set: AddressSet { banks, rows, cols },
                        },
                    ));
                }
                "end" => {
                    if fields.len() != 1 {
                        return Err(syntax("end takes no fields".to_string()));
                    }
                    complete = true;
                }
                other => {
                    return Err(syntax(format!("unknown directive {other:?}")));
                }
            }
        }
        if !complete {
            return Err(LogError::Truncated);
        }
        if !seen_years {
            return Err(LogError::Syntax {
                line: 0,
                what: "missing years directive".to_string(),
            });
        }
        if log.dimms.is_empty() {
            return Err(LogError::Empty);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_fleet::DimmPopulation;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The fixture of `tests/parser_edges.rs`.
    const EDGES: &str = include_str!("../tests/fixtures/edges.log");

    /// What the differential test splices into a log: whitespace that
    /// `u8::is_ascii_whitespace` misses (`\x0B`) or that only Unicode
    /// knows (U+00A0, U+0085, U+3000), comment marks, and spellings that
    /// `str::parse` reads as numbers.
    const JUNK: [&str; 15] = [
        "\r", "\x0B", "\x0C", "\t", "#", "\u{A0}", "\u{85}", "\u{3000}", "+", "-0", "1e3", "inf",
        "NaN", "h", "*",
    ];

    /// `text` after `edits` random edits: a byte set or deleted, a
    /// truncation, or a splice of [`JUNK`] or of `id`, an id the text
    /// declares. Broken UTF-8 becomes U+FFFD.
    fn mutate(text: &str, id: &str, edits: usize, rng: &mut StdRng) -> String {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..edits {
            let at = rng.gen_range(0..=bytes.len());
            let splice = match rng.gen_range(0u32..8) {
                0 if at < bytes.len() => {
                    bytes[at] = rng.gen_range(0..=u8::MAX);
                    continue;
                }
                1 if at < bytes.len() => {
                    bytes.remove(at);
                    continue;
                }
                2 => {
                    bytes.truncate(at);
                    continue;
                }
                3 => id,
                _ => JUNK[rng.gen_range(0..JUNK.len())],
            };
            // Half the splices land on a field boundary, where whitespace
            // junk keeps every field and the log may still parse.
            let at = match rng.gen_range(0u32..2) {
                0 => bytes[at..]
                    .iter()
                    .position(|&b| b == b' ' || b == b'\n')
                    .map_or(at, |k| at + k),
                _ => at,
            };
            bytes.splice(at..at, splice.bytes());
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Asserts that the scanner and [`reference::parse`] agree on `text`.
    /// Results are compared as `Debug` text, since a `NaN` in an error
    /// is never `==` itself. A successful parse must also count the lines
    /// `str::lines` does.
    fn assert_parsers_agree(text: &str) {
        let ours = FaultLog::parse_counted(text);
        if let Ok((_, lines)) = &ours {
            assert_eq!(*lines, text.lines().count(), "line count of {text:?}");
        }
        let ours = format!("{:?}", ours.map(|(log, _)| log));
        let theirs = format!("{:?}", reference::parse(text));
        assert_eq!(ours, theirs, "parsers disagree on {text:?}");
    }

    /// A `to_text` segment of a generated three-class log: every DIMM
    /// carries several faults, so runs of faults share a DIMM.
    fn generated_segment(seed: u64) -> FaultLog {
        let populations = vec![
            DimmPopulation::paper("cold")
                .weight(0.6)
                .rate_multiplier(20.0),
            DimmPopulation::paper("warm")
                .weight(0.3)
                .rate_multiplier(40.0),
            DimmPopulation::paper("hot")
                .weight(0.1)
                .rate_multiplier(80.0)
                .scrub_interval_h(2.0),
        ];
        let spec = FleetSpec::baseline(24).populations(populations).seed(seed);
        crate::generate_log(&spec).split_channels(8).swap_remove(1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The scanner returns what the old parser returned, `Ok` log or
        /// typed error, on mutations of the `parser_edges.rs` fixture.
        fn scanner_matches_reference_on_mutated_fixture(seed in any::<u64>(), edits in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            assert_parsers_agree(&mutate(EDGES, "d1", edits, &mut rng));
        }

        /// The same on mutations of a generated three-class segment.
        fn scanner_matches_reference_on_mutated_segment(seed in any::<u64>(), edits in 1usize..5) {
            let segment = generated_segment(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let id = &segment.dimms[rng.gen_range(0..segment.dimms.len())].id;
            assert_parsers_agree(&mutate(&segment.to_text(), id, edits, &mut rng));
        }
    }

    fn tiny_log() -> FaultLog {
        let g = FaultLog::geometry();
        FaultLog {
            years: 7.0,
            classes: vec![
                LogClass {
                    name: "cold".to_string(),
                    scrub_interval_h: 4.0,
                    cores: 4,
                },
                LogClass {
                    name: "hot".to_string(),
                    scrub_interval_h: 2.0,
                    cores: 16,
                },
            ],
            dimms: vec![
                LogDimm {
                    id: "a0".to_string(),
                    class: 0,
                },
                LogDimm {
                    id: "b1".to_string(),
                    class: 1,
                },
            ],
            faults: vec![
                (
                    1,
                    FaultEvent {
                        time_h: 0.125,
                        mode: FaultMode::SingleColumn,
                        transient: true,
                        rank: Some(1),
                        device_pos: 35,
                        set: g.address_set(FaultMode::SingleColumn, 3, 0, 5),
                    },
                ),
                (
                    1,
                    FaultEvent {
                        time_h: 61319.987654321,
                        mode: FaultMode::MultiRank,
                        transient: false,
                        rank: None,
                        device_pos: 0,
                        set: AddressSet::all(),
                    },
                ),
            ],
            id_index: Vec::new(),
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let log = tiny_log();
        let text = log.to_text();
        let parsed = FaultLog::parse(&text).expect("round trip");
        assert_eq!(parsed, log);
        // Bit-exact time round trip, not just approximate.
        assert_eq!(
            parsed.faults[1].1.time_h.to_bits(),
            log.faults[1].1.time_h.to_bits()
        );
        assert_eq!(parsed.class_dimm_counts(), vec![1, 1]);
        assert_eq!(parsed.class_fault_counts(), vec![0, 2]);
    }

    #[test]
    fn parse_recorded_counts_validated_content_only() {
        use arcc_obs::{Recorder, SnapshotRecorder};
        let log = tiny_log();
        let text = log.to_text();
        let mut rec = SnapshotRecorder::new();
        let parsed = FaultLog::parse_recorded(&text, &mut rec).expect("round trip");
        assert_eq!(parsed, log);
        let snap = rec.snapshot().clone();
        assert_eq!(
            snap.counter("replay.parse.lines"),
            text.lines().count() as u64
        );
        assert_eq!(snap.counter("replay.parse.classes"), 2);
        assert_eq!(snap.counter("replay.parse.dimms"), 2);
        assert_eq!(snap.counter("replay.parse.faults"), 2);
        // A rejected parse must leave the recorder untouched.
        let mut rec = SnapshotRecorder::new();
        rec.counter_add("sentinel", 1);
        assert!(FaultLog::parse_recorded("not a log", &mut rec).is_err());
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "arcc-fault-log v1\n\n# a comment\nyears 7  # trailing\nclass c 4 4\n\
                    dimm d c\nend\n";
        let log = FaultLog::parse(text).expect("parse");
        assert_eq!(log.dimms.len(), 1);
        assert_eq!(log.years, 7.0);
    }

    /// The tokenization rules of README's format section.
    #[test]
    fn fields_split_on_unicode_whitespace_and_numbers_use_str_parse() {
        let text = "arcc-fault-log v1\r\n\
                    years\u{A0}+7\x0B\r\n\
                    class c 4 +4 # a comment\r\n\
                    dimm d\u{3000}c#a comment cutting a field\r\n\
                    fault d 1e3 bit T 0 +3 2 100 5\r\n\
                    end\r\n";
        let log = FaultLog::parse(text).expect("parse");
        assert_eq!(log.years, 7.0);
        assert_eq!(log.classes[0].cores, 4);
        assert_eq!(
            log.dimms[0],
            LogDimm {
                id: "d".to_string(),
                class: 0
            }
        );
        assert_eq!(log.faults[0].1.time_h, 1000.0);
        assert_eq!(log.faults[0].1.device_pos, 3);
        assert_parsers_agree(text);
        let text = text.replace("1e3", "inf");
        assert!(matches!(
            FaultLog::parse(&text),
            Err(LogError::TimeOutOfRange { line: 5, time_h, .. }) if time_h == f64::INFINITY
        ));
        assert_parsers_agree(&text);
    }

    #[test]
    fn replay_spec_mirrors_inventory() {
        let log = tiny_log();
        let spec = log.replay_spec(42);
        assert_eq!(spec.channels, 2);
        assert_eq!(spec.populations.len(), 2);
        assert_eq!(spec.populations[1].name, "hot");
        assert_eq!(spec.populations[1].scrub_interval_h, 2.0);
        assert_eq!(spec.populations[1].cores, 16);
        let arrivals = log.arrivals().expect("arrivals");
        assert_eq!(arrivals.channels(), 2);
        assert_eq!(arrivals.total_events(), 2);
        assert_eq!(arrivals.population_of(1), 1);
        arrivals.validate_for(&spec).expect("consistent");
    }
}
