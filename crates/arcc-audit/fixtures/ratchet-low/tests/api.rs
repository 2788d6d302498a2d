//! Calls the library's public fn, so it is not dead API.

#[test]
fn first_is_called() {
    assert_eq!(fix_low::first(&[7]), Some(7));
}
