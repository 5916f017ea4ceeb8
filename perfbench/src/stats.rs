//! Order statistics and the metric-name grammar.

/// The median of `xs` (mean of the middle two for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile chosen by [`tail`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The integer percentile reported.
    pub pct: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples taken.
    pub n: usize,
    /// Samples strictly ranked beyond the reported one.
    pub beyond: usize,
}

/// The highest integer percentile that has at least [`TAIL_BEYOND`]
/// samples ranked beyond it, by the nearest-rank rule (rank
/// `ceil(pct * n / 100)`). `None` when there are too few samples for any
/// percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Highest pct with n - ceil(pct * n / 100) >= TAIL_BEYOND.
    let mut pct = (100 * (n - TAIL_BEYOND) / n) as u32;
    loop {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        if n - rank >= TAIL_BEYOND {
            return Some(Tail {
                pct,
                value: v[rank - 1],
                n,
                beyond: n - rank,
            });
        }
        pct -= 1;
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.pct, t.beyond, t.n), (9, 10, 11));
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(30)).unwrap();
        // p66: rank ceil(19.8) = 20, ten samples above it.
        assert_eq!((t.pct, t.value, t.beyond), (66, 20.0, 10));
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));
        // p67 of 30 would leave only nine beyond.
        assert_eq!(30 - (67usize * 30).div_ceil(100), 9);
    }

    #[test]
    fn tail_always_leaves_at_least_ten_beyond() {
        for n in 11..400 {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}");
            let next = ((t.pct as usize + 1) * n).div_ceil(100);
            assert!(
                t.pct == 99 || n - next < TAIL_BEYOND,
                "n={n}: p{} not highest",
                t.pct
            );
        }
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "wall_s",
            "fleet.events_per_s",
            "sim_ipc",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "MB", "x"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
