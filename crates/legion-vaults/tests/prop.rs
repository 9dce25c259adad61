//! Property tests: vault storage accounting under random op sequences.

use legion_core::{LegionError, Loid, LoidKind, Opr, SimTime, VaultObject};
use legion_vaults::{StandardVault, VaultConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Store an OPR for object `obj` with `size` bytes and version `v`.
    Store { obj: u64, size: usize, version: u64 },
    Fetch { obj: u64 },
    Delete { obj: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..8, 0usize..200, 1u64..5)
            .prop_map(|(obj, size, version)| Op::Store { obj, size, version }),
        (1u64..8).prop_map(|obj| Op::Fetch { obj }),
        (1u64..8).prop_map(|obj| Op::Delete { obj }),
    ]
}

fn opr(obj: u64, size: usize, version: u64) -> Opr {
    let mut o = Opr::new(
        Loid::synthetic(LoidKind::Instance, obj),
        Loid::synthetic(LoidKind::Class, 1),
        SimTime::ZERO,
        vec![0u8; size],
    );
    o.version = version;
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The vault's used_bytes always equals the sum of the stored OPRs'
    /// sizes; capacity is never exceeded; versions never regress.
    #[test]
    fn accounting_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        const CAP: u64 = 500;
        let config = VaultConfig { capacity_bytes: CAP, ..Default::default() };
        let v = StandardVault::new(Loid::synthetic(LoidKind::Vault, 1), config);
        let mut model: BTreeMap<u64, (usize, u64)> = BTreeMap::new(); // obj -> (size, version)

        for op in ops {
            match op {
                Op::Store { obj, size, version } => {
                    let res = v.store_opr(opr(obj, size, version));
                    let old = model.get(&obj).copied();
                    let projected: u64 = model
                        .iter()
                        .map(|(&o, &(s, _))| if o == obj { size as u64 } else { s as u64 })
                        .sum::<u64>()
                        + if old.is_none() { size as u64 } else { 0 };
                    let stale = old.is_some_and(|(_, ver)| ver > version);
                    if stale {
                        prop_assert!(matches!(res, Err(LegionError::Serialization(_))));
                    } else if projected > CAP {
                        prop_assert!(matches!(res, Err(LegionError::VaultFull(_))));
                    } else {
                        prop_assert!(res.is_ok());
                        model.insert(obj, (size, version));
                    }
                }
                Op::Fetch { obj } => {
                    let got = v.fetch_opr(Loid::synthetic(LoidKind::Instance, obj));
                    match model.get(&obj) {
                        Some(&(size, version)) => {
                            let o = got.expect("model says present");
                            prop_assert_eq!(o.size_bytes(), size);
                            prop_assert_eq!(o.version, version);
                        }
                        None => prop_assert!(matches!(got, Err(LegionError::NoSuchOpr(_)))),
                    }
                }
                Op::Delete { obj } => {
                    let res = v.delete_opr(Loid::synthetic(LoidKind::Instance, obj));
                    if model.remove(&obj).is_some() {
                        prop_assert!(res.is_ok());
                    } else {
                        prop_assert!(matches!(res, Err(LegionError::NoSuchOpr(_))));
                    }
                }
            }

            // Invariants after every step.
            let stats = v.storage();
            let model_bytes: u64 = model.values().map(|&(s, _)| s as u64).sum();
            prop_assert_eq!(stats.used_bytes, model_bytes, "accounting drift");
            prop_assert_eq!(stats.opr_count, model.len());
            prop_assert!(stats.used_bytes <= CAP);
        }
    }
}
