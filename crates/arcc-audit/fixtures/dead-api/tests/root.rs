//! A root integration test.

#[test]
fn root_test_calls() {
    assert_eq!(fix_dead::from_root_test() + fix_user::total(), 15);
}
