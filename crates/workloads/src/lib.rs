#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod streaming;
pub mod suite;

pub use profile::{EembcProfile, SyntheticEembc};
pub use streaming::Streaming;
pub use suite::{all_profiles, fig1_suite};

/// Looks up a catalog benchmark's [`EembcProfile`] by name (see [`suite`]
/// for the list).
///
/// Callers (e.g. scenario files sweeping burstiness knobs) can override
/// fields before instantiating the generator. Returns `None` for unknown
/// names, including `"streaming"` (which has no profile).
pub fn profile_by_name(name: &str) -> Option<EembcProfile> {
    suite::all_profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup() {
        for p in all_profiles() {
            assert_eq!(
                profile_by_name(p.name),
                Some(p.clone()),
                "missing {}",
                p.name
            );
        }
    }

    #[test]
    fn profile_lookup_returns_the_catalog_entry() {
        let p = profile_by_name("matrix").expect("matrix is in the catalog");
        assert_eq!(p, suite::matrix());
        assert!(profile_by_name("streaming").is_none());
        assert!(profile_by_name("nonexistent").is_none());
    }

    #[test]
    fn fig1_suite_is_the_paper_selection() {
        let names: Vec<&str> = fig1_suite().iter().map(|p| p.name).collect();
        assert_eq!(names, ["cacheb", "canrdr", "matrix", "tblook"]);
    }
}
