//! Consistency checks across crates: the scheme descriptor table
//! (arcc-core), the actual codecs (arcc-gf), the functional LOT-ECC/VECC
//! implementations, and the reliability models must all tell one story.

use arcc::core::lotecc::{LotCodec, LotReadOutcome};
use arcc::core::vecc::{Vecc, VeccReadOutcome};
use arcc::core::{find_scheme, ArccScheme, SchemeDescriptor};
use arcc::faults::{FaultGeometry, FaultMode};
use arcc::gf::chipkill::LineCodec;
use arcc::reliability::OverheadModel;

/// The descriptor a scheme-table key names.
fn descriptor(key: &str) -> &'static SchemeDescriptor {
    let entry = find_scheme(key).unwrap_or_else(|| panic!("{key} is registered"));
    &entry.relaxed
}

#[test]
fn descriptors_match_codecs() {
    let arcc = ArccScheme::commercial();
    let relaxed = descriptor("relaxed-ck2");
    assert_eq!(relaxed.rank_size, arcc.relaxed_devices());
    assert_eq!(
        relaxed.check_symbols as usize,
        arcc.relaxed().check_symbols()
    );

    let sccdcd = descriptor("sccdcd");
    let codec = LineCodec::sccdcd_x4();
    assert_eq!(sccdcd.rank_size as usize, codec.devices());
    assert_eq!(sccdcd.check_symbols as usize, codec.check_symbols());
    assert!((sccdcd.storage_overhead - codec.storage_overhead()).abs() < 1e-12);
}

#[test]
fn guarantee_table_is_honoured_by_the_rs_codecs() {
    // SCCDCD: correct 1, detect 2 — with the correct-1 policy the codec
    // must fix any single device and flag any double device.
    let codec = LineCodec::sccdcd_x4();
    let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
    let clean = codec.encode_line(&data).expect("valid geometry");

    let mut one = clean.clone();
    one.kill_device(7, 0xAA);
    codec
        .decode_line(&mut one, &[], 1)
        .expect("single chipkill corrected");
    assert_eq!(codec.extract_data(&one), data);

    let mut two = clean.clone();
    two.corrupt_device(7, 0x11);
    two.corrupt_device(21, 0x22);
    assert!(
        codec.decode_line(&mut two, &[], 1).is_err(),
        "double chipkill must be a DUE under SCCDCD policy"
    );

    // Double chip sparing: the same code corrects the second failure once
    // the first is known (erasure).
    let mut spared = clean.clone();
    spared.kill_device(7, 0x00);
    spared.corrupt_device(21, 0x22);
    codec
        .decode_line(&mut spared, &[7], 1)
        .expect("erasure + error within 4 checks");
    assert_eq!(codec.extract_data(&spared), data);
}

#[test]
fn lotecc_guarantees_match_descriptor() {
    let lot18 = descriptor("lot-ecc-18");
    assert_eq!(lot18.guarantees.sequential_correct, 1);
    let codec = LotCodec::eighteen_device();
    assert_eq!(codec.rank_size() as u32, lot18.rank_size);
    assert!(codec.supports_sparing());

    let lot9 = descriptor("lot-ecc-9");
    let codec9 = LotCodec::nine_device();
    assert_eq!(codec9.rank_size() as u32, lot9.rank_size);
    assert!(!codec9.supports_sparing());
}

#[test]
fn vecc_cost_structure_matches_descriptor() {
    // Descriptor says fault-free reads are single-rank; the functional
    // model must agree, and pay the second access only on error.
    let mut v = Vecc::new();
    let data: Vec<u8> = (0..64).map(|i| (i * 5) as u8).collect();
    let mut line = v.encode(&data);
    let (_, ev) = v.read(&mut line);
    assert_eq!(ev, VeccReadOutcome::Clean);
    assert_eq!(v.stats().read_rank_accesses, 1);
    line.in_rank.corrupt_device(3, 0x40);
    let (out, ev) = v.read(&mut line);
    assert!(matches!(ev, VeccReadOutcome::CorrectedWithExtraAccess(_)));
    assert_eq!(out, data);
    assert_eq!(v.stats().read_rank_accesses, 3);
}

#[test]
fn lotecc_weakness_is_the_one_the_paper_describes() {
    // Consistent wrong-row data defeats the checksum (SDC), while RS-based
    // SCCDCD detects the same corruption — the Chapter 2 comparison.
    let lot = LotCodec::nine_device();
    let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
    let mut lot_line = lot.encode(&data);
    lot.corrupt_consistently(&mut lot_line, 2, &[0x42u8; 8]);
    let (_, ev) = lot.read(&lot_line);
    assert_eq!(ev, LotReadOutcome::Clean, "LOT-ECC misses it");

    let rs = LineCodec::sccdcd_x4();
    let mut rs_line = rs.encode_line(&data).expect("valid geometry");
    rs_line.kill_device(2, 0x42); // same kind of wrong-but-live output
    let outcome = rs.decode_line(&mut rs_line, &[], 1).expect("corrected");
    assert!(!outcome.is_clean(), "RS catches and fixes it");
}

#[test]
fn worst_case_models_derive_from_geometry() {
    // The reliability overhead models and the fault geometry must agree on
    // Table 7.4 — no independently hard-coded fractions.
    let g = FaultGeometry::paper_channel();
    let power = OverheadModel::worst_case_arcc_power(&g);
    for mode in FaultMode::ALL {
        assert!(
            (power.overhead(mode) - g.affected_page_fraction(mode)).abs() < 1e-12,
            "{mode:?}"
        );
    }
}
