//! Calls every public fn of the library, so none of them is dead API.

#[test]
fn library_api_is_called() {
    assert_eq!(fix_docs::documented(1), 1);
    assert_eq!(fix_docs::bare(1), 2);
}
