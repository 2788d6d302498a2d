//! Calls every public fn of the library, so none of them is dead API.

use std::collections::HashMap;

#[test]
fn library_api_is_called() {
    let spec = fix_clean::Spec {
        channels: 3,
        bucket_width: 1.0,
    };
    assert_eq!(spec.fingerprint(), 3);
    assert_eq!(fix_clean::cached(&HashMap::from([(1, 2)]), 1), Some(2));
    assert_eq!(fix_clean::first(&[7, 8]), 7);
}
