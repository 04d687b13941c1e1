//! The benchmark's statistics: medians, tail percentiles under the
//! ten-samples-beyond rule, span self time, and the ledger sum check.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile as reported: the percentile actually used, its value
/// and the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile used, in (0, 100).
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Samples needed beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `want` of `xs`, lowered to the highest
/// percentile that still leaves [`MIN_BEYOND`] samples above its rank
/// when `xs` is too short to support `want`. Returns `None` with
/// `MIN_BEYOND` or fewer samples.
pub fn tail(xs: &[f64], want: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank (1-based) of the nearest-rank percentile p is ceil(p/100 * n);
    // the samples beyond it are n - rank.
    let rank_for = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let (percentile, rank) = if n - rank_for(want) >= MIN_BEYOND {
        (want, rank_for(want))
    } else {
        let rank = n - MIN_BEYOND;
        (rank as f64 / n as f64 * 100.0, rank)
    };
    Some(Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
    })
}

/// [`tail`] of each block of consecutive samples just long enough to
/// support `want` (200 for a p95), medianed over the blocks: a tail that
/// one burst of outside load in one block cannot move. With fewer samples
/// than one block needs this is [`tail`] of them all.
pub fn blocked_tail(xs: &[f64], want: f64) -> Option<Tail> {
    let needed = (MIN_BEYOND as f64 / (1.0 - want / 100.0)).ceil() as usize;
    let blocks = (xs.len() / needed.max(1)).max(1);
    let size = xs.len() / blocks;
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| {
            tail(
                &xs[b * size..if b + 1 == blocks {
                    xs.len()
                } else {
                    (b + 1) * size
                }],
                want,
            )
        })
        .collect::<Option<_>>()?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        percentile: tails.iter().map(|t| t.percentile).fold(want, f64::min),
        value: median(&values),
        samples: xs.len(),
    })
}

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start: u64,
    /// End, nanoseconds since the trace origin.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time per stage name over the descendants of span `root`
/// (the root's own self time under its own name), sorted by name.
pub fn stage_totals(spans: &[Span], root: usize) -> Vec<(&'static str, u64)> {
    let selfs = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        // Spans are recorded parent-first, so a parent's membership is
        // settled before its children are visited.
        in_tree[i] = i == root || s.parent.is_some_and(|p| in_tree[p]);
        if in_tree[i] {
            *totals.entry(s.name).or_default() += selfs[i];
        }
    }
    totals.into_iter().collect()
}

/// The ledger sum check: stage self times must add up to the wall time
/// within `tolerance` (a share of the wall time). Returns the ratio
/// `sum / wall` and whether it passes.
pub fn ledger_sum_check(stage_nanos: &[u64], wall_nanos: u64, tolerance: f64) -> (f64, bool) {
    let sum: u64 = stage_nanos.iter().sum();
    if wall_nanos == 0 {
        return (0.0, false);
    }
    let ratio = sum as f64 / wall_nanos as f64;
    (ratio, (ratio - 1.0).abs() <= tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 95.0).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.samples, 200);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn short_sample_lowers_the_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 95.0).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
        assert!(tail(&xs[..10], 50.0).is_none());
    }

    #[test]
    fn median_request_is_kept_when_supported() {
        let xs: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        let t = tail(&xs, 50.0).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 11.0));
    }

    #[test]
    fn blocked_tail_medians_block_tails() {
        // Three blocks of 200; one carries a burst of slow samples.
        let mut xs: Vec<f64> = Vec::new();
        for b in 0..3 {
            xs.extend(
                (1..=200).map(|i| f64::from(i) + if b == 1 && i > 150 { 1000.0 } else { 0.0 }),
            );
        }
        let t = blocked_tail(&xs, 95.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 190.0, 600));
        assert!(
            tail(&xs, 95.0).unwrap().value > 1000.0,
            "pooled p95 sees the burst"
        );
        // Too few samples for a block: the plain rule applies.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(blocked_tail(&short, 95.0), tail(&short, 95.0));
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union 10..50
            span("c", 60, 70, Some(0)),
            span("a.x", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 10, 6]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn stage_totals_sum_to_root_duration() {
        let spans = vec![
            span("other", 0, 100, None),
            span("read", 0, 40, Some(0)),
            span("decode", 40, 90, Some(0)),
            span("read", 90, 95, Some(0)),
            span("unrelated", 0, 1000, None),
        ];
        let totals = stage_totals(&spans, 0);
        assert_eq!(totals, vec![("decode", 50), ("other", 5), ("read", 45)]);
        let nanos: Vec<u64> = totals.iter().map(|&(_, t)| t).collect();
        let (ratio, ok) = ledger_sum_check(&nanos, spans[0].duration(), 0.05);
        assert_eq!(ratio, 1.0);
        assert!(ok);
    }

    #[test]
    fn ledger_check_rejects_uncovered_time() {
        let (ratio, ok) = ledger_sum_check(&[40, 50], 100, 0.05);
        assert!((ratio - 0.9).abs() < 1e-12);
        assert!(!ok);
        assert!(ledger_sum_check(&[96], 100, 0.05).1);
        assert!(!ledger_sum_check(&[1], 0, 0.05).1);
    }
}
