//! The committed decision corpus: `baselines/corpus.txt` holds one
//! digest line per month of the 144-month corpus (see
//! `billcap_sim::corpus`), and the current code must reproduce every
//! line. A change that claims to move no decision bit passes this test
//! with the file unedited; a change that moves decisions on purpose
//! regenerates the file with `billcap corpus` and lists the months that
//! moved.

use billcap_sim::corpus::CorpusMonth;

const BASELINE: &str = include_str!("../../../baselines/corpus.txt");

#[test]
fn corpus_matches_the_committed_baseline() {
    let months = CorpusMonth::all();
    let lines: Vec<&str> = BASELINE.lines().collect();
    assert_eq!(lines.len(), months.len(), "one baseline line per month");
    let checked: Vec<(CorpusMonth, &str)> = months.into_iter().zip(lines).collect();
    let moved: Vec<String> = billcap_rt::try_par_map(&checked, |(month, want)| {
        month.run().map(|got| {
            let got = got.to_string();
            (got != *want).then(|| format!("  want {want}\n  got  {got}"))
        })
    })
    .expect("every corpus month runs")
    .into_iter()
    .flatten()
    .collect();
    assert!(
        moved.is_empty(),
        "{} of {} months moved:\n{}",
        moved.len(),
        checked.len(),
        moved.join("\n")
    );
}
