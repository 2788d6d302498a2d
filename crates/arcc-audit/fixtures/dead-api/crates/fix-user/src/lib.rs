//! Uses part of `fix-dead`, and names more of it without using it.
#![forbid(unsafe_code)]

use fix_dead::Widget;

// A comment that names in_comment does not use it.
pub use fix_dead::reexported;

/// Sums what it uses.
///
/// ```
/// assert_eq!(fix_dead::in_doctest(), 8);
/// ```
pub fn total() -> u32 {
    let label = "in_string";
    fix_dead::from_peer_src() + Widget.live() + label.len() as u32
}
