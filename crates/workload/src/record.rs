//! Record (value) size distributions.
//!
//! The paper's main experiments use small records (≤ 512 B dominate, per
//! §II-C); the sector-aligned-journaling sensitivity study (Fig. 13) uses
//! "four different patterns that randomly mix various record sizes from
//! 128 to 4096 bytes".

use checkin_sim::SimRng;

/// A weighted distribution over record sizes in bytes.
///
/// # Examples
///
/// ```
/// use checkin_workload::RecordSizes;
/// use checkin_sim::SimRng;
///
/// let sizes = RecordSizes::fixed(1024);
/// let mut rng = SimRng::seed_from(1);
/// assert_eq!(sizes.sample(&mut rng), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSizes {
    /// `(size_bytes, weight)` pairs.
    choices: Vec<(u32, u32)>,
    total_weight: u64,
}

impl RecordSizes {
    /// Every record has the same size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn fixed(bytes: u32) -> Self {
        Self::weighted(vec![(bytes, 1)])
    }

    /// A weighted mix.
    ///
    /// # Panics
    ///
    /// Panics if empty, or any size or weight is zero.
    pub fn weighted(choices: Vec<(u32, u32)>) -> Self {
        assert!(!choices.is_empty(), "size mix must be non-empty");
        assert!(
            choices.iter().all(|&(s, w)| s > 0 && w > 0),
            "sizes and weights must be positive"
        );
        let total_weight = choices.iter().map(|&(_, w)| w as u64).sum();
        RecordSizes {
            choices,
            total_weight,
        }
    }

    /// The paper's main-experiment profile: small records dominate
    /// (Table I lists 128 B – 4 KiB with the text emphasising ≤ 512 B
    /// updates).
    pub fn paper_default() -> Self {
        Self::weighted(vec![
            (128, 20),
            (256, 25),
            (384, 15),
            (512, 20),
            (1024, 10),
            (2048, 6),
            (4096, 4),
        ])
    }

    /// Fig. 13(b) mixing pattern 1: small-value heavy.
    pub fn pattern1() -> Self {
        Self::weighted(vec![(128, 40), (256, 30), (512, 20), (1024, 10)])
    }

    /// Fig. 13(b) mixing pattern 2: balanced small/medium.
    pub fn pattern2() -> Self {
        Self::weighted(vec![
            (128, 15),
            (256, 20),
            (512, 30),
            (1024, 20),
            (2048, 15),
        ])
    }

    /// Fig. 13(b) mixing pattern 3: medium values.
    pub fn pattern3() -> Self {
        Self::weighted(vec![(512, 25), (1024, 30), (2048, 30), (4096, 15)])
    }

    /// Fig. 13(b) mixing pattern 4: uniform over all classes.
    pub fn pattern4() -> Self {
        Self::weighted(vec![
            (128, 1),
            (256, 1),
            (512, 1),
            (1024, 1),
            (2048, 1),
            (4096, 1),
        ])
    }

    /// Draws one record size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let mut pick = rng.gen_range(self.total_weight);
        for &(size, w) in &self.choices {
            if pick < w as u64 {
                return size;
            }
            pick -= w as u64;
        }
        self.choices.last().expect("non-empty").0
    }

    /// Largest size in the mix.
    pub fn max_bytes(&self) -> u32 {
        self.choices
            .iter()
            .map(|&(s, _)| s)
            .max()
            .expect("non-empty")
    }
}

impl Default for RecordSizes {
    fn default() -> Self {
        RecordSizes::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_returns_size() {
        let s = RecordSizes::fixed(777);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 777);
        }
        assert_eq!(s.max_bytes(), 777);
    }

    #[test]
    fn weighted_respects_weights_roughly() {
        let s = RecordSizes::weighted(vec![(100, 9), (200, 1)]);
        let mut rng = SimRng::seed_from(2);
        let small = (0..10_000).filter(|_| s.sample(&mut rng) == 100).count();
        assert!((8_500..9_500).contains(&small), "got {small}");
    }

    #[test]
    fn paper_default_mostly_small() {
        let s = RecordSizes::paper_default();
        let mut rng = SimRng::seed_from(3);
        let small = (0..10_000).filter(|_| s.sample(&mut rng) <= 512).count();
        assert!(small > 7_000, "small-record share: {small}");
        assert_eq!(s.max_bytes(), 4096);
    }

    #[test]
    fn patterns_cover_paper_range() {
        for p in [
            RecordSizes::pattern1(),
            RecordSizes::pattern2(),
            RecordSizes::pattern3(),
            RecordSizes::pattern4(),
        ] {
            assert!(p.max_bytes() <= 4096);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_mix_panics() {
        RecordSizes::weighted(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        RecordSizes::weighted(vec![(128, 0)]);
    }
}
