//! The repro and frontier parsers return an error, never a panic, on
//! whatever text they are handed: arbitrary bytes, and the committed
//! repro files (and a frontier file) with lines dropped or duplicated and
//! tokens replaced by out-of-range or malformed numbers.

use explore::frontier::parse_frontier;
use explore::parse_repro;
use proptest::prelude::*;

const REPROS: [&str; 4] = [
    include_str!("repros/absorb_epoch_merge_crash.repro"),
    include_str!("repros/absorb_epoch_race.repro"),
    include_str!("repros/descend_overtakes_split_relay.repro"),
    include_str!("repros/merge_req_lost_in_crash.repro"),
];

/// The example in `frontier`'s module doc, which names its search by id.
const FRONTIER: &str = "# explore frontier v1\n\
                        scenario 1f2e3d4c5b6a7988\n\
                        schedules 1234\n\
                        complete 0\n\
                        frame 17 b 17 23 41 d 23\n\
                        v 00ff00ff00ff00ff 12\n";
const FRONTIER_ID: u64 = 0x1f2e_3d4c_5b6a_7988;

/// What a mutated token becomes: zero, negative, not a number, 2^64 (one
/// past `u64::MAX`) and nothing at all.
const TOKENS: [&str; 5] = ["0", "-1", "NaN", "18446744073709551616", ""];

/// Apply one mutation per pick: drop a line, duplicate a line, or replace
/// one space-separated token of a line with one of [`TOKENS`]. A pick's
/// bit fields choose the mutation, the line, the token and the replacement.
fn mutate(text: &str, picks: &[u64]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &p in picks {
        if lines.is_empty() {
            break;
        }
        let i = (p >> 8) as usize % lines.len();
        match p % 3 {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            _ => {
                let mut toks: Vec<&str> = lines[i].split(' ').collect();
                let t = (p >> 24) as usize % toks.len();
                toks[t] = TOKENS[(p >> 40) as usize % TOKENS.len()];
                lines[i] = toks.join(" ");
            }
        }
    }
    lines.join("\n")
}

/// The mutations start from valid text: every committed repro (which
/// `regressions.rs` replays) and a frontier that parses.
#[test]
fn the_corpus_is_every_committed_repro_and_a_valid_frontier() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let committed = std::fs::read_dir(&dir)
        .expect("tests/repros")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "repro"))
        })
        .count();
    assert_eq!(committed, REPROS.len(), "add the new repro to REPROS");
    let state = parse_frontier(FRONTIER, FRONTIER_ID).expect("frontier parses");
    assert_eq!(state.frames.len(), 1);
    assert_eq!(state.visited, vec![(0x00ff_00ff_00ff_00ff, 12)]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]

    #[test]
    fn parsers_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        file in 0usize..REPROS.len(),
        picks in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        // Bare, and behind a valid header so the bytes reach the key match.
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_repro(&text);
        let _ = parse_repro(&format!("# explore repro v1\n{text}"));
        let _ = parse_frontier(&text, FRONTIER_ID);
        let _ = parse_frontier(
            &format!("# explore frontier v1\nscenario {FRONTIER_ID:016x}\n{text}"),
            FRONTIER_ID,
        );
        let _ = parse_repro(&mutate(REPROS[file], &picks));
        let _ = parse_frontier(&mutate(FRONTIER, &picks), FRONTIER_ID);
    }
}
