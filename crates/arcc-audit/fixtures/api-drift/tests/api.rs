//! Calls every public fn of the library, so none of them is dead API.

#[test]
fn library_api_is_called() {
    assert_eq!(fix_api::length(&[1, 2]), 2);
    assert_eq!(fix_api::checksum(&[1, 2]), 3);
}
