//! The category taxonomy (label space) of the corpus.

use crate::templates;
use qd_imagery::SceneTemplate;

/// Identifier of a leaf category ("subconcept") in the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubconceptId(pub u32);

/// A leaf category: a human-readable name plus the scene template that
/// generates its images.
#[derive(Debug, Clone)]
pub struct Subconcept {
    /// Unique, namespaced name (e.g. `"bird/owl"`).
    pub name: String,
    /// The scene template that generates this category's images.
    pub template: SceneTemplate,
    /// True for procedurally generated filler categories (not part of any
    /// evaluation query's ground truth).
    pub filler: bool,
}

/// The corpus label space.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    subconcepts: Vec<Subconcept>,
}

impl Taxonomy {
    /// The standard evaluation taxonomy: the 29 named subconcepts backing the
    /// paper's test queries, plus `filler_count` procedurally generated
    /// categories (deterministic in `seed`). The paper's database has
    /// "15,000 images from about 150 categories"; `Taxonomy::standard(122,
    /// seed)` reproduces that shape.
    pub fn standard(filler_count: usize, seed: u64) -> Self {
        let mut subconcepts: Vec<Subconcept> = templates::named_subconcepts()
            .into_iter()
            .map(|(name, template)| Subconcept {
                name: name.to_string(),
                template,
                filler: false,
            })
            .collect();
        for i in 0..filler_count {
            subconcepts.push(Subconcept {
                name: format!("filler-{i:03}"),
                template: templates::filler_template(seed, i as u64),
                filler: true,
            });
        }
        Self { subconcepts }
    }

    /// Number of leaf categories.
    pub fn len(&self) -> usize {
        self.subconcepts.len()
    }

    /// True if the taxonomy has no categories.
    pub fn is_empty(&self) -> bool {
        self.subconcepts.is_empty()
    }

    /// All subconcept ids.
    pub fn ids(&self) -> impl Iterator<Item = SubconceptId> + '_ {
        (0..self.subconcepts.len() as u32).map(SubconceptId)
    }

    /// The subconcept for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get(&self, id: SubconceptId) -> &Subconcept {
        &self.subconcepts[id.0 as usize]
    }

    /// Name of `id`.
    pub fn name(&self, id: SubconceptId) -> &str {
        &self.get(id).name
    }

    /// Finds a subconcept by exact name.
    pub fn find(&self, name: &str) -> Option<SubconceptId> {
        self.subconcepts
            .iter()
            .position(|s| s.name == name)
            .map(|i| SubconceptId(i as u32))
    }

    /// Finds a subconcept by name, panicking with a clear message when
    /// missing — for the built-in query definitions.
    pub fn require(&self, name: &str) -> SubconceptId {
        self.find(name)
            .unwrap_or_else(|| panic!("taxonomy has no subconcept named {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_taxonomy_has_expected_shape() {
        let t = Taxonomy::standard(121, 0);
        assert_eq!(t.len(), 150);
        assert_eq!(t.ids().filter(|&id| !t.get(id).filler).count(), 29);
    }

    #[test]
    fn names_are_unique() {
        let t = Taxonomy::standard(50, 0);
        let mut names: Vec<&str> = t.ids().map(|id| t.name(id)).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn find_roundtrips_names() {
        let t = Taxonomy::standard(5, 0);
        for id in t.ids() {
            assert_eq!(t.find(t.name(id)), Some(id));
        }
        assert_eq!(t.find("no-such-category"), None);
    }

    #[test]
    fn query_relevant_subconcepts_exist() {
        let t = Taxonomy::standard(0, 0);
        for name in [
            "person/hair-model",
            "person/fitness",
            "person/kungfu",
            "airplane/single",
            "airplane/multiple",
            "bird/eagle",
            "bird/owl",
            "bird/sparrow",
            "car/modern-sedan",
            "car/antique",
            "car/steamed",
            "horse/polo",
            "horse/wild",
            "horse/race",
            "mountain/snow",
            "mountain/water",
            "rose/yellow",
            "rose/red",
            "watersports/surfing",
            "watersports/sailing",
            "computer/server",
            "computer/desktop-table",
            "computer/desktop-floor",
            "computer/laptop-clear",
            "computer/laptop-cluttered",
            "white-sedan/side",
            "white-sedan/front",
            "white-sedan/back",
            "white-sedan/angle",
        ] {
            assert!(t.find(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn filler_templates_are_deterministic_in_seed() {
        let a = Taxonomy::standard(10, 7);
        let b = Taxonomy::standard(10, 7);
        for (x, y) in a.subconcepts.iter().zip(&b.subconcepts) {
            assert_eq!(x.template, y.template);
        }
        let c = Taxonomy::standard(10, 8);
        assert!(a
            .subconcepts
            .iter()
            .zip(&c.subconcepts)
            .filter(|(x, _)| x.filler)
            .any(|(x, y)| x.template != y.template));
    }

    #[test]
    #[should_panic(expected = "no subconcept named")]
    fn require_panics_on_missing() {
        Taxonomy::standard(0, 0).require("nope");
    }
}
