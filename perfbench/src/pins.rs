//! Expected output hashes for the default seeds. Any seed may be run;
//! a pinned seed must also reproduce its recorded hash.
//!
//! Each hash is a `lkas_runtime::Fingerprint` of the workload's
//! deterministic outputs: the robustness report bytes of the benchmarked
//! entries
//! (`campaign-quick`), the job's counters and per-sector MAE bits
//! (`fig7-trained`), and the first two cold result payloads
//! (`fleet-mixed`).

pub const CAMPAIGN: &[(u64, &str)] = &[
    (1, "9f7973339f95bd95"),
    (2, "b2f93b89806544f7"),
    (3, "241563d5f9a5313d"),
    (4, "5a988918e87f20c4"),
    (5, "275c2896a61e0556"),
    (6, "04950b459a5a8046"),
    (7, "d1ad89569e60bd11"),
    (8, "58a6b1ce0e400ed6"),
    (9, "a824b3343561a846"),
    (10, "c465351bf6425229"),
];

pub const FIG7: &[(u64, &str)] = &[
    (1, "160ddab9b1e7ddc0"),
    (2, "2b83908d4c3345e1"),
    (3, "36727de791251d9d"),
    (4, "1c0d58b89c42d44d"),
    (5, "000a60dcc51e173e"),
    (6, "bf7dfb9bcc84e4bf"),
    (7, "14be0fa77fa393ca"),
    (8, "d17e4f9b65c3e8ce"),
    (9, "ffcea8a29b841341"),
    (10, "f83c1a1c86bae5ba"),
];

pub const FLEET: &[(u64, &str)] = &[
    (1, "5a32cdc1827cbf40"),
    (2, "6b0f67073daa0777"),
    (3, "1a5d98bcc2adf37f"),
    (4, "69e5c10748685fb4"),
    (5, "972a5ce193b71bc7"),
    (6, "eaafb142147265e8"),
    (7, "a3ad8bb62348a68d"),
    (8, "5d8129ca7b412c27"),
    (9, "bc73a3f6ec7032bd"),
    (10, "008200b7cb340f51"),
];

/// `Ok` when `seed` is not pinned or its hash matches.
pub fn check(table: &[(u64, &str)], seed: u64, hash: &str) -> Result<(), String> {
    match table.iter().find(|(s, _)| *s == seed) {
        Some((_, expected)) if *expected != hash => {
            Err(format!("seed {seed}: output hash {hash}, pinned {expected}"))
        }
        _ => Ok(()),
    }
}
