//! Adaptive Reliability Chipkill Correct (ARCC) — the paper's contribution.
//!
//! ARCC starts every 4 KB physical page in a **relaxed** chipkill mode
//! (2 check symbols per codeword, 18 devices per access) and reactively
//! **upgrades** pages in which the memory scrubber detects an error to a
//! strong mode (4 check symbols, 36 devices across two lockstep channels)
//! by joining adjacent 64 B lines from two channels into 128 B lines —
//! identical storage overhead, double the detection/correction strength,
//! high power only where faults actually live.
//!
//! This crate binds the substrates together:
//!
//! * [`schemes`] — the chipkill scheme table (SECDED, commercial SCCDCD,
//!   double chip sparing, VECC, LOT-ECC, ARCC and the codec zoo): one
//!   static registry of cost descriptors whose entries name their codecs
//!   (Table 7.1 / Chapter 2 / Chapter 5);
//! * [`page`] — the page table and TLB mode bits of §4.2.1;
//! * [`image`] — a functional byte-accurate memory image where lines are
//!   really encoded with the Reed–Solomon codec, faults corrupt device
//!   symbols, and upgrades re-encode pages (§4.1);
//! * [`scrub`] — conventional and test-pattern scrubbers (§4.2.2);
//! * [`upgrade`] — the codeword-joining upgrade engine (Figure 4.1);
//! * [`system`] — the trace → LLC → memory-controller experiment driver
//!   behind Figures 7.1–7.5;
//! * [`lotecc`] / [`vecc`] — the recently-proposed schemes of Chapter 2,
//!   functionally implemented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod lotecc;
pub mod page;
pub mod par;
pub mod schemes;
pub mod scrub;
pub mod system;
pub mod timeline;
pub mod upgrade;
pub mod vecc;

pub use image::{FunctionalMemory, InjectedFault, ReadEvent};
pub use page::{PageTable, ProtectionMode};
pub use par::{default_threads, parallel_map};
pub use schemes::{
    find_scheme, scheme_registry, ArccScheme, SchemeDescriptor, SchemeEntry, PAPER_SCHEMES,
};
pub use scrub::{ScrubCost, ScrubOutcome, ScrubStrategy, Scrubber};
pub use system::{cell_seed, splitmix64, MixResult, SimConfig, SystemSim};
pub use timeline::{run_timeline, LifetimeReport, ScheduledFault, TimelineConfig, TimelineEvent};
pub use upgrade::UpgradeEngine;
