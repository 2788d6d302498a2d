//! Reliability analysis for chipkill-correct memory: the engines behind
//! Figure 3.1 (faulty-page fraction over time), Figure 6.1 (SDC rate of
//! always-on double error detection vs. ARCC's scrub-gated detection), and
//! Figures 7.4–7.6 (average power/performance overhead of error correction
//! as faults accumulate over a system's lifetime).
//!
//! The semantics follow Chapter 6 of the paper:
//!
//! * faults are permanent (or transient until the next scrub's corrected
//!   write-back) and accumulate over the lifespan;
//! * ARCC's relaxed codewords guarantee detection of **one** bad symbol,
//!   so a second fault striking an overlapping codeword *before the scrub
//!   that detects the first* can corrupt silently — exactly the correction
//!   condition of double chip sparing;
//! * the always-on SCCDCD baseline guarantees detection of **two** bad
//!   symbols, so its silent corruptions need a *third* overlapping fault;
//! * a machine is retired at its first undetected error, so each machine
//!   contributes at most one SDC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faulty_fraction;
pub mod lifetime;
pub mod sdc;

pub use faulty_fraction::{faulty_fraction_curve, FaultyFractionPoint};
pub use lifetime::{lifetime_overhead_curve, LifetimeConfig, LifetimePoint, OverheadModel};
pub use sdc::{active_at, arrival_is_sdc, detection_time, SchemeCapability, SdcConfig, SdcResult};
