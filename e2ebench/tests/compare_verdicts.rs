//! Compare mode's verdict rule and result-file parsing.

use e2ebench::compare::{judge, read_results, read_rules, Rule, Verdict};

const LOWER: Rule = Rule {
    lower_is_better: true,
    bound: 0.10,
};
const HIGHER: Rule = Rule {
    lower_is_better: false,
    bound: 0.10,
};

fn around(center: f64, jitter: f64) -> Vec<f64> {
    (0..10)
        .map(|i| center + jitter * (((i * 7) % 10) as f64 / 9.0 - 0.5))
        .collect()
}

#[test]
fn clear_gain_is_improved() {
    let parent = around(10.0, 0.2);
    let change = around(8.0, 0.2);
    let j = judge(&parent, &change, LOWER);
    assert_eq!(j.verdict, Verdict::Improved);
    assert_eq!(j.wins_share, 1.0);
}

#[test]
fn higher_is_better_direction() {
    let parent = around(100.0, 2.0);
    assert_eq!(
        judge(&parent, &around(120.0, 2.0), HIGHER).verdict,
        Verdict::Improved
    );
    assert_eq!(
        judge(&parent, &around(80.0, 2.0), HIGHER).verdict,
        Verdict::Worse
    );
}

#[test]
fn same_distribution_is_unchanged() {
    let parent = around(10.0, 0.3);
    let mut change = parent.clone();
    change.reverse();
    assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Unchanged);
}

#[test]
fn loss_beyond_the_bound_is_worse() {
    let parent = around(10.0, 0.2);
    let change = around(11.5, 0.2);
    assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Worse);
}

#[test]
fn small_loss_within_the_bound_is_unchanged() {
    let parent = around(10.0, 0.2);
    let change = around(10.5, 0.2);
    assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Unchanged);
}

#[test]
fn gain_needs_nine_tenths_of_pairs() {
    // Medians differ, but the change wins only 8 of 10 pairs.
    let parent = vec![10.0; 10];
    let mut change = vec![9.0; 10];
    change[0] = 11.0;
    change[1] = 11.0;
    assert_ne!(judge(&parent, &change, LOWER).verdict, Verdict::Improved);
}

#[test]
fn gain_must_exceed_the_parents_own_spread() {
    // Wins every pair, but by less than the parent's quartile spread.
    let parent: Vec<f64> = (0..10).map(|i| 10.0 + i as f64 * 0.1).collect();
    let change: Vec<f64> = parent.iter().map(|x| x - 0.05).collect();
    assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Unchanged);
}

#[test]
fn wide_spread_is_unresolved_unless_dominated() {
    let parent = around(10.0, 6.0);
    let change = around(10.4, 6.0);
    assert_eq!(judge(&parent, &change, LOWER).verdict, Verdict::Unresolved);
    let dominated: Vec<f64> = parent.iter().map(|_| 1.0).collect();
    assert_eq!(judge(&parent, &dominated, LOWER).verdict, Verdict::Improved);
}

#[test]
fn results_are_grouped_by_the_preceding_context_line() {
    let text = r#"
progress noise on stdout
{"context":{"workload":"chain","seed":1}}
{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":1.5,"unit":"s"}}}
{"context":{"workload":"serve","seed":1}}
{"correct":true,"attempted":9,"failed":0,"metrics":{"run_s":{"value":5.0,"unit":"s"}}}
{"context":{"workload":"chain","seed":2}}
{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":1.7,"unit":"s"}}}
"#;
    let set = read_results(text).expect("parses");
    assert_eq!(set["chain"]["run_s"], vec![1.5, 1.7]);
    assert_eq!(set["serve"]["run_s"], vec![5.0]);
}

#[test]
fn rules_come_from_the_benchmark_file() {
    let text = r#"{"end_to_end":[
        {"name":"run_s","unit":"s","better":"lower","bound":0.1},
        {"name":"items_per_s","unit":"1/s","better":"higher","bound":0.2}]}"#;
    let rules = read_rules(text).expect("parses");
    assert!(rules["run_s"].lower_is_better);
    assert!(!rules["items_per_s"].lower_is_better);
    assert_eq!(rules["items_per_s"].bound, 0.2);
}
