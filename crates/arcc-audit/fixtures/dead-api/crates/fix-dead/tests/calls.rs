//! An integration test of `fix-dead`.

#[test]
fn crate_test_calls() {
    assert_eq!(fix_dead::from_crate_test(), 2);
}
