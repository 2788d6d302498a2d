//! Uses part of `fix-dead`, and names more of it without using it.
#![forbid(unsafe_code)]

use fix_dead::{imported, Widget};

// A comment that names in_comment does not use it.
pub use fix_dead::reexported;

/// Holds a field that shares a fix-dead fn's name.
pub struct Holder {
    /// Not a use of `fix_dead::in_field`.
    pub in_field: u32,
}

/// Sums what it uses.
///
/// ```
/// assert_eq!(fix_dead::in_doctest(), 8);
/// ```
pub fn total() -> u32 {
    let label = "in_string";
    let in_binding = Holder { in_field: 1 };
    let values: [fn() -> u32; 2] = [fix_dead::by_path, imported];
    fix_dead::from_peer_src()
        + Widget.live()
        + label.len() as u32
        + in_binding.in_field * values.len() as u32
        - 2
}
