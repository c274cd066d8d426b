//! Order statistics and the host-speed normalisation every time-derived
//! metric goes through.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// First and third quartile by the "exclusive" method — the definition of
/// Python's `statistics.quantiles(values, n=4)`, which the acceptance rule
/// for this benchmark is written in.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // Rank q*(n+1)/4 (1-based), its integer part clamped into the sample;
        // the remainder is taken after clamping, so tiny samples extrapolate
        // exactly as Python's do.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((q * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the spread figure bounds
/// are compared against.  Zero when the median is zero.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Geometric mean (1.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What a series of samples looks like, for the `run` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (non-empty).
    pub fn of(values: &[f64]) -> Self {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: mad(values),
            n: values.len(),
        }
    }
}

/// Seconds an interval would have taken on the reference host.  Only the
/// share of it the process spent on a CPU (`busy_share`, 0..=1) scales with
/// host speed; time spent waiting — for a timer, a socket, a disk — passes
/// at the same rate on any host and is kept as measured.  `slowness` is the
/// yardstick's reading: 1.0 on the reference host, above it on a slower one.
pub fn normalise(raw_s: f64, busy_share: f64, slowness: f64) -> f64 {
    let busy = busy_share.clamp(0.0, 1.0);
    raw_s * ((1.0 - busy) + busy / slowness)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Deviations from 3: 2, 1, 0, 1, 6 → median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0]), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 9.0]);
        assert_eq!(
            (s.median, s.min, s.max, s.mad, s.n),
            (3.0, 1.0, 9.0, 1.0, 5)
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn yardstick_normalisation_cancels_host_speed() {
        // A host running everything 25 % slower reports the same figure.
        let fast = normalise(2.0, 1.0, 1.0);
        let slow = normalise(2.5, 1.0, 1.25);
        assert!((fast - 2.0).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
        // Waiting does not speed up with the host: an interval that was 80 %
        // timer keeps that part as measured.
        let waiting = normalise(1.0, 0.2, 1.25);
        assert!((waiting - (0.8 + 0.2 / 1.25)).abs() < 1e-12);
        assert_eq!(normalise(1.0, 0.0, 2.0), 1.0);
        // Two busy threads are still one fully busy interval.
        assert_eq!(normalise(1.0, 1.9, 2.0), 0.5);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
