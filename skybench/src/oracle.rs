//! Answers computed apart from the program under test.
//!
//! The oracle regenerates the same `Survey` the server was built from and
//! answers from its in-memory records with plain Rust: no loader, storage,
//! HTM or SQL code is involved, so a fault in any of those layers shows up
//! as a disagreement.

use skyserver::skygen::{PhotoFlag, PhotoObjRecord, PhotoType, SpecObjRecord, Survey};
use std::collections::HashMap;

/// Arcminutes within which an object may sit on either side of a cone's
/// edge: the program and the oracle compute distances with different
/// formulas, so they may round an object on the boundary differently.
const EDGE_ARCMIN: f64 = 1e-6;

/// The survey's records, indexed for the checks.
pub struct Oracle {
    /// Every PhotoObj record.
    pub photo: Vec<PhotoObjRecord>,
    /// Every SpecObj record.
    pub spec: Vec<SpecObjRecord>,
    /// USNO match distances.
    pub usno_delta: Vec<f64>,
    /// Spectral lines per `specObjID`.
    pub lines_per_spec: HashMap<i64, usize>,
    by_id: HashMap<i64, usize>,
    /// `(dec, index)` sorted by dec, for cone searches.
    by_dec: Vec<(f64, usize)>,
}

/// Great-circle distance in arcminutes (haversine formula).
pub fn distance_arcmin(ra1: f64, dec1: f64, ra2: f64, dec2: f64) -> f64 {
    let (d1, d2) = (dec1.to_radians(), dec2.to_radians());
    let sin_ddec = ((d2 - d1) / 2.0).sin();
    let sin_dra = ((ra2 - ra1).to_radians() / 2.0).sin();
    let h = sin_ddec * sin_ddec + d1.cos() * d2.cos() * sin_dra * sin_dra;
    2.0 * h.sqrt().min(1.0).asin().to_degrees() * 60.0
}

/// The result of a cone search: what must be in it and what may be.
pub struct ConeAnswer {
    /// `(objID, distance)` of every object within the radius, nearest first
    /// (objects on the edge included).
    pub loose: Vec<(i64, f64)>,
    /// Objects that must be present: within the radius and off the edge.
    pub strict: usize,
}

impl ConeAnswer {
    /// Check a full answer set.
    pub fn check_set(&self, got: &[i64]) -> Result<(), String> {
        let loose: HashMap<i64, f64> = self.loose.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        for id in got {
            if !loose.contains_key(id) {
                return Err(format!("object {id} lies outside the cone"));
            }
            if !seen.insert(*id) {
                return Err(format!("object {id} listed twice"));
            }
        }
        if got.len() < self.strict {
            return Err(format!(
                "{} objects returned, {} lie inside the cone",
                got.len(),
                self.strict
            ));
        }
        Ok(())
    }

    /// Check the first page of a nearest-first answer: the k-th row must be
    /// the k-th nearest object (up to distance ties) and the total must
    /// match.
    pub fn check_page(&self, got: &[i64], total: usize) -> Result<(), String> {
        if total < self.strict || total > self.loose.len() {
            return Err(format!(
                "total {total} outside [{}, {}]",
                self.strict,
                self.loose.len()
            ));
        }
        let dist: HashMap<i64, f64> = self.loose.iter().copied().collect();
        for (k, id) in got.iter().enumerate() {
            let d = dist
                .get(id)
                .ok_or_else(|| format!("object {id} lies outside the cone"))?;
            let want = self.loose.get(k).map_or(f64::INFINITY, |x| x.1);
            if (d - want).abs() > EDGE_ARCMIN {
                return Err(format!("row {k} is at {d}', the {k}-th nearest at {want}'"));
            }
        }
        Ok(())
    }
}

impl Oracle {
    /// Index a generated survey (its other tables are dropped).
    pub fn new(survey: Survey) -> Oracle {
        let photo = survey.photo.objects;
        let by_id = photo
            .iter()
            .enumerate()
            .map(|(i, o)| (o.obj_id, i))
            .collect();
        let mut by_dec: Vec<(f64, usize)> =
            photo.iter().enumerate().map(|(i, o)| (o.dec, i)).collect();
        by_dec.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut lines_per_spec = HashMap::new();
        for line in &survey.spectro.spec_lines {
            *lines_per_spec.entry(line.spec_obj_id).or_insert(0) += 1;
        }
        Oracle {
            photo,
            spec: survey.spectro.spec_objs,
            usno_delta: survey.xmatch.usno.iter().map(|u| u.delta).collect(),
            lines_per_spec,
            by_id,
            by_dec,
        }
    }

    /// The record of `obj_id`.
    pub fn object(&self, obj_id: i64) -> Option<&PhotoObjRecord> {
        self.by_id.get(&obj_id).map(|&i| &self.photo[i])
    }

    /// Largest PhotoObj id.
    pub fn max_obj_id(&self) -> i64 {
        self.photo.iter().map(|o| o.obj_id).max().unwrap_or(0)
    }

    /// Largest declination of any object.
    pub fn max_dec(&self) -> f64 {
        self.by_dec.last().map_or(0.0, |x| x.0)
    }

    /// Every object within `radius` arcminutes of `(ra, dec)`.
    pub fn cone(&self, ra: f64, dec: f64, radius: f64) -> ConeAnswer {
        let band = (radius + 1.0) / 60.0;
        let lo = self.by_dec.partition_point(|x| x.0 < dec - band);
        let hi = self.by_dec.partition_point(|x| x.0 <= dec + band);
        let mut loose = Vec::new();
        let mut strict = 0;
        for &(_, i) in &self.by_dec[lo..hi] {
            let o = &self.photo[i];
            let d = distance_arcmin(ra, dec, o.ra, o.dec);
            if d <= radius + EDGE_ARCMIN {
                loose.push((o.obj_id, d));
                if d < radius - EDGE_ARCMIN {
                    strict += 1;
                }
            }
        }
        loose.sort_by(|a, b| a.1.total_cmp(&b.1));
        ConeAnswer { loose, strict }
    }

    /// Objects of the `PhotoPrimary` view.
    pub fn primary(&self) -> impl Iterator<Item = &PhotoObjRecord> {
        let (primary, ok_run) = (PhotoFlag::Primary as i64, PhotoFlag::OkRun as i64);
        self.photo
            .iter()
            .filter(move |o| o.flags & primary != 0 && o.flags & ok_run != 0)
    }

    /// Objects of the `Galaxy` view.
    pub fn galaxies(&self) -> impl Iterator<Item = &PhotoObjRecord> {
        self.primary()
            .filter(|o| o.obj_type == PhotoType::Galaxy as i64)
    }

    /// Objects of the `Star` view.
    pub fn stars(&self) -> impl Iterator<Item = &PhotoObjRecord> {
        self.primary()
            .filter(|o| o.obj_type == PhotoType::Star as i64)
    }

    /// The `n` brightest galaxies by `modelMag_r`.
    pub fn brightest_galaxies(&self, n: usize) -> Vec<i64> {
        let mut g: Vec<&PhotoObjRecord> = self.galaxies().collect();
        g.sort_by(|a, b| a.model_mag[R].total_cmp(&b.model_mag[R]));
        g.iter().take(n).map(|o| o.obj_id).collect()
    }

    /// Ids in `[lo, hi]`, ascending.
    pub fn ids_between(&self, lo: i64, hi: i64) -> Vec<i64> {
        let mut ids: Vec<i64> = self
            .photo
            .iter()
            .map(|o| o.obj_id)
            .filter(|id| (lo..=hi).contains(id))
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Band indexes of the five-band magnitude arrays.
pub const U: usize = 0;
/// g band.
pub const G: usize = 1;
/// r band.
pub const R: usize = 2;
/// i band.
pub const I: usize = 3;
/// z band.
pub const Z: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_distances() {
        assert!((distance_arcmin(10.0, 0.0, 10.0, 1.0) - 60.0).abs() < 1e-9);
        assert!((distance_arcmin(0.0, 0.0, 1.0, 0.0) - 60.0).abs() < 1e-9);
        assert_eq!(distance_arcmin(5.0, 5.0, 5.0, 5.0), 0.0);
        let d = distance_arcmin(180.0, 60.0, 181.0, 60.0);
        assert!(
            (d - 30.0).abs() < 0.01,
            "one degree of ra at dec 60 is ~30', got {d}"
        );
    }

    #[test]
    fn cone_answers_accept_only_exact_sets() {
        let answer = ConeAnswer {
            loose: vec![(1, 0.1), (2, 0.5), (3, 1.0)],
            strict: 2,
        };
        assert!(answer.check_set(&[1, 2]).is_ok());
        assert!(answer.check_set(&[1, 2, 3]).is_ok());
        assert!(answer.check_set(&[1]).is_err());
        assert!(answer.check_set(&[1, 2, 4]).is_err());
        assert!(answer.check_page(&[1, 2], 3).is_ok());
        assert!(answer.check_page(&[2, 1], 3).is_err());
        assert!(answer.check_page(&[1, 2], 5).is_err());
    }
}
