//! Drift-detection quality metrics.
//!
//! Given the ground-truth drift positions of a synthetic stream and the
//! positions at which a detector raised alarms, these metrics quantify how
//! well the detector did independently of any classifier:
//!
//! * **detection delay** — instances between a true drift and the first
//!   alarm raised within its acceptance horizon,
//! * **missed drifts** — true drifts with no alarm inside the horizon,
//! * **false alarms** — alarms not attributable to any true drift.
//!
//! The paper evaluates detectors indirectly through classifier performance;
//! these direct metrics power the ablation studies
//! (`rbm_im_harness::ablation`).

use serde::{Deserialize, Serialize};

/// Summary of detection quality for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionQuality {
    /// Number of ground-truth drifts.
    pub true_drifts: usize,
    /// Number of drifts detected within their acceptance horizon.
    pub detected: usize,
    /// Number of drifts never detected within the horizon.
    pub missed: usize,
    /// Alarms that could not be attributed to any true drift.
    pub false_alarms: usize,
    /// Mean delay (in instances) of the detected drifts; `None` if nothing
    /// was detected.
    pub mean_delay: Option<f64>,
    /// Per-drift delay (aligned with the ground-truth positions); `None`
    /// entries are missed drifts.
    pub delays: Vec<Option<u64>>,
}

impl DetectionQuality {
    /// Recall of the detector: detected / true drifts (1.0 when there are no
    /// true drifts).
    pub fn recall(&self) -> f64 {
        if self.true_drifts == 0 {
            1.0
        } else {
            self.detected as f64 / self.true_drifts as f64
        }
    }

    /// Precision of the detector: detected / (detected + false alarms)
    /// (1.0 when no alarms were raised at all).
    pub fn precision(&self) -> f64 {
        let alarms = self.detected + self.false_alarms;
        if alarms == 0 {
            1.0
        } else {
            self.detected as f64 / alarms as f64
        }
    }
}

/// Scores a list of alarm positions against ground-truth drift positions.
///
/// An alarm is attributed to the earliest not-yet-detected true drift `d`
/// with `d <= alarm <= d + horizon`. Each true drift can be detected at most
/// once; additional alarms inside the same horizon are *not* counted as
/// false alarms (a detector may legitimately fire several times while a
/// drift unfolds), but alarms outside every horizon are.
///
/// Both position lists must be sorted ascending (they are by construction in
/// the harness); the function sorts defensively anyway.
pub fn evaluate_detections(
    true_positions: &[u64],
    alarms: &[u64],
    horizon: u64,
) -> DetectionQuality {
    let mut truths: Vec<u64> = true_positions.to_vec();
    truths.sort_unstable();
    let mut alarm_list: Vec<u64> = alarms.to_vec();
    alarm_list.sort_unstable();

    let mut delays: Vec<Option<u64>> = vec![None; truths.len()];
    let mut false_alarms = 0usize;

    for &alarm in &alarm_list {
        // Find the drift this alarm falls into (attributed or not).
        let mut attributed = false;
        let mut inside_any_horizon = false;
        for (i, &d) in truths.iter().enumerate() {
            if alarm >= d && alarm <= d + horizon {
                inside_any_horizon = true;
                if delays[i].is_none() {
                    delays[i] = Some(alarm - d);
                    attributed = true;
                    break;
                }
            }
        }
        if !attributed && !inside_any_horizon {
            false_alarms += 1;
        }
    }

    let detected = delays.iter().filter(|d| d.is_some()).count();
    let missed = truths.len() - detected;
    let mean_delay = if detected == 0 {
        None
    } else {
        Some(delays.iter().flatten().map(|&d| d as f64).sum::<f64>() / detected as f64)
    };
    DetectionQuality {
        true_drifts: truths.len(),
        detected,
        missed,
        false_alarms,
        mean_delay,
        delays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection() {
        let q = evaluate_detections(&[1000, 2000, 3000], &[1010, 2050, 3005], 500);
        assert_eq!(q.detected, 3);
        assert_eq!(q.missed, 0);
        assert_eq!(q.false_alarms, 0);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.precision(), 1.0);
        assert!((q.mean_delay.unwrap() - (10.0 + 50.0 + 5.0) / 3.0).abs() < 1e-12);
        assert_eq!(q.delays, vec![Some(10), Some(50), Some(5)]);
    }

    #[test]
    fn missed_and_false_alarms() {
        let q = evaluate_detections(&[1000, 5000], &[1100, 3000], 500);
        assert_eq!(q.detected, 1);
        assert_eq!(q.missed, 1);
        assert_eq!(q.false_alarms, 1);
        assert_eq!(q.recall(), 0.5);
        assert_eq!(q.precision(), 0.5);
        assert_eq!(q.delays, vec![Some(100), None]);
    }

    #[test]
    fn no_alarms_at_all() {
        let q = evaluate_detections(&[1000], &[], 500);
        assert_eq!(q.detected, 0);
        assert_eq!(q.missed, 1);
        assert_eq!(q.false_alarms, 0);
        assert_eq!(q.mean_delay, None);
        assert_eq!(q.recall(), 0.0);
        assert_eq!(q.precision(), 1.0);
    }

    #[test]
    fn no_true_drifts_everything_is_false_alarm() {
        let q = evaluate_detections(&[], &[100, 200], 500);
        assert_eq!(q.true_drifts, 0);
        assert_eq!(q.false_alarms, 2);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.precision(), 0.0);
    }

    #[test]
    fn repeated_alarms_within_one_horizon_not_penalized() {
        let q = evaluate_detections(&[1000], &[1010, 1020, 1100, 1400], 500);
        assert_eq!(q.detected, 1);
        assert_eq!(q.false_alarms, 0);
        assert_eq!(q.delays, vec![Some(10)]);
    }

    #[test]
    fn alarm_before_drift_is_a_false_alarm() {
        let q = evaluate_detections(&[1000], &[900], 500);
        assert_eq!(q.detected, 0);
        assert_eq!(q.false_alarms, 1);
    }

    #[test]
    fn unsorted_inputs_are_handled() {
        let q = evaluate_detections(&[3000, 1000], &[3010, 1005], 200);
        assert_eq!(q.detected, 2);
        assert_eq!(q.delays, vec![Some(5), Some(10)]);
    }

    #[test]
    fn overlapping_horizons_attribute_greedily() {
        // Two drifts close together; a single alarm detects the first one.
        let q = evaluate_detections(&[1000, 1100], &[1150], 500);
        assert_eq!(q.detected, 1);
        assert_eq!(q.delays, vec![Some(150), None]);
        // A second alarm then detects the second drift.
        let q = evaluate_detections(&[1000, 1100], &[1150, 1200], 500);
        assert_eq!(q.detected, 2);
        assert_eq!(q.delays, vec![Some(150), Some(100)]);
    }
}
