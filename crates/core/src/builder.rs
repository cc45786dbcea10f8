//! Fluent construction of nets.
//!
//! Modeling with P-NUT is "enumerating all events in the system and
//! listing their pre- and post-conditions; the order in which the events
//! are listed is irrelevant" (paper §1). The builder mirrors this: places
//! and transitions are declared in any order by name, and name resolution
//! plus validation happen once in [`NetBuilder::build`].

use crate::error::NetError;
use crate::expr::{Action, Env, Expr, Value};
use crate::net::{Delay, Net, Place, PlaceId, Transition};

/// Constant-fold an expression delay at build time: a `Delay::Expr`
/// whose expression provably evaluates to a non-negative integer (no
/// variables, tables, or `irand`) is stored as `Delay::Fixed`, so it
/// takes the constant fast path everywhere instead of paying per-state
/// resolution. Expressions that would error — or fold to a negative or
/// boolean value — are kept symbolic so their runtime error behaviour
/// is unchanged.
fn fold_delay(d: &Delay) -> Delay {
    if let Delay::Expr(e) = d {
        if let Some(Value::Int(v)) = e.const_value() {
            if let Ok(ticks) = u64::try_from(v) {
                return Delay::Fixed(ticks);
            }
        }
    }
    d.clone()
}

#[derive(Debug, Clone)]
struct TransitionDecl {
    name: String,
    inputs: Vec<(String, u32)>,
    outputs: Vec<(String, u32)>,
    inhibitors: Vec<(String, u32)>,
    firing_time: Delay,
    enabling_time: Delay,
    frequency: f64,
    predicate: Option<Expr>,
    action: Option<Action>,
    max_concurrent: Option<u32>,
}

/// Builder for [`Net`]; see the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct NetBuilder {
    name: String,
    places: Vec<(String, u32)>,
    transitions: Vec<TransitionDecl>,
    env: Env,
}

impl NetBuilder {
    /// Start a net with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declare a place with its initial token count. Returns `&mut self`
    /// for chaining.
    pub fn place(&mut self, name: impl Into<String>, initial_tokens: u32) -> &mut Self {
        self.places.push((name.into(), initial_tokens));
        self
    }

    /// Declare several token-free places at once.
    pub fn places_empty<I, S>(&mut self, names: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for n in names {
            self.place(n, 0);
        }
        self
    }

    /// Declare an integer variable in the initial environment.
    pub fn var(&mut self, name: impl Into<String>, value: i64) -> &mut Self {
        self.env.set_var(name, Value::Int(value));
        self
    }

    /// Declare a lookup table in the initial environment (the paper's
    /// `operands[type]` tables, §3).
    pub fn table(&mut self, name: impl Into<String>, values: Vec<i64>) -> &mut Self {
        self.env.define_table(name, values);
        self
    }

    /// Begin declaring a transition; finish with
    /// [`TransitionBuilder::add`].
    pub fn transition(&mut self, name: impl Into<String>) -> TransitionBuilder<'_> {
        TransitionBuilder {
            builder: self,
            decl: TransitionDecl {
                name: name.into(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                inhibitors: Vec::new(),
                firing_time: Delay::ZERO,
                enabling_time: Delay::ZERO,
                frequency: 1.0,
                predicate: None,
                action: None,
                max_concurrent: None,
            },
        }
    }

    /// Resolve names, validate, and produce the net.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] describing the first inconsistency found:
    /// duplicate names, arcs to undeclared places, zero weights, invalid
    /// frequencies or ones whose sum overflows, or zero concurrency caps.
    pub fn build(&self) -> Result<Net, NetError> {
        let mut place_ids = std::collections::BTreeMap::new();
        let mut places = Vec::with_capacity(self.places.len());
        for (name, tokens) in &self.places {
            if place_ids
                .insert(name.clone(), PlaceId::new(places.len()))
                .is_some()
            {
                return Err(NetError::DuplicatePlace(name.clone()));
            }
            places.push(Place::new(name.clone(), *tokens));
        }

        // Duplicate arcs to the same place are merged: weights add for
        // input/output arcs (two weight-1 arcs consume two tokens), and
        // the *strictest* (lowest) threshold wins for inhibitors. This
        // keeps `marking_enabled`'s per-arc check sound.
        let resolve = |tname: &str,
                       arcs: &[(String, u32)],
                       merge_add: bool|
         -> Result<Vec<(PlaceId, u32)>, NetError> {
            let mut merged: Vec<(PlaceId, u32)> = Vec::with_capacity(arcs.len());
            for (pname, w) in arcs {
                if *w == 0 {
                    return Err(NetError::ZeroWeight {
                        transition: tname.to_string(),
                        place: pname.clone(),
                    });
                }
                let id = place_ids
                    .get(pname)
                    .copied()
                    .ok_or_else(|| NetError::UnknownPlace {
                        transition: tname.to_string(),
                        place: pname.clone(),
                    })?;
                match merged.iter_mut().find(|(p, _)| *p == id) {
                    Some((_, existing)) if merge_add => *existing += *w,
                    Some((_, existing)) => *existing = (*existing).min(*w),
                    None => merged.push((id, *w)),
                }
            }
            Ok(merged)
        };

        let mut seen_transitions = std::collections::BTreeSet::new();
        let mut transitions = Vec::with_capacity(self.transitions.len());
        // Both engines divide a frequency by the sum over a choice, so
        // the sum of all of them must stay finite.
        let mut frequency_sum = 0.0f64;
        for d in &self.transitions {
            if !seen_transitions.insert(d.name.clone()) {
                return Err(NetError::DuplicateTransition(d.name.clone()));
            }
            if !(d.frequency.is_finite() && d.frequency > 0.0) {
                return Err(NetError::InvalidFrequency {
                    transition: d.name.clone(),
                    frequency: d.frequency,
                });
            }
            frequency_sum += d.frequency;
            if !frequency_sum.is_finite() {
                return Err(NetError::FrequencyOverflow {
                    transition: d.name.clone(),
                });
            }
            if d.max_concurrent == Some(0) {
                return Err(NetError::ZeroConcurrency {
                    transition: d.name.clone(),
                });
            }
            transitions.push(Transition::new(
                d.name.clone(),
                resolve(&d.name, &d.inputs, true)?,
                resolve(&d.name, &d.outputs, true)?,
                resolve(&d.name, &d.inhibitors, false)?,
                fold_delay(&d.firing_time),
                fold_delay(&d.enabling_time),
                d.frequency,
                d.predicate.clone(),
                d.action.clone(),
                d.max_concurrent,
            ));
        }

        Ok(Net::from_parts(
            self.name.clone(),
            places,
            transitions,
            self.env.clone(),
        ))
    }
}

/// In-progress transition declaration; obtained from
/// [`NetBuilder::transition`].
#[derive(Debug)]
pub struct TransitionBuilder<'a> {
    builder: &'a mut NetBuilder,
    decl: TransitionDecl,
}

impl TransitionBuilder<'_> {
    /// Add an input arc of weight 1 (a pre-condition consumed on firing).
    pub fn input(self, place: impl Into<String>) -> Self {
        self.input_weighted(place, 1)
    }

    /// Add an input arc with an explicit weight.
    pub fn input_weighted(mut self, place: impl Into<String>, weight: u32) -> Self {
        self.decl.inputs.push((place.into(), weight));
        self
    }

    /// Add an output arc of weight 1 (a post-condition enabled on firing).
    pub fn output(self, place: impl Into<String>) -> Self {
        self.output_weighted(place, 1)
    }

    /// Add an output arc with an explicit weight.
    pub fn output_weighted(mut self, place: impl Into<String>, weight: u32) -> Self {
        self.decl.outputs.push((place.into(), weight));
        self
    }

    /// Add an inhibitor arc with threshold 1: the transition is disabled
    /// while the place is non-empty (the paper's "dark bubble" arcs).
    pub fn inhibitor(self, place: impl Into<String>) -> Self {
        self.inhibitor_at(place, 1)
    }

    /// Add an inhibitor arc with an explicit threshold: disabled while
    /// the place holds at least `threshold` tokens.
    pub fn inhibitor_at(mut self, place: impl Into<String>, threshold: u32) -> Self {
        self.decl.inhibitors.push((place.into(), threshold));
        self
    }

    /// Set a fixed firing time in ticks.
    pub fn firing(mut self, ticks: u64) -> Self {
        self.decl.firing_time = Delay::Fixed(ticks);
        self
    }

    /// Set an expression-valued firing time (evaluated at each firing).
    pub fn firing_expr(mut self, expr: Expr) -> Self {
        self.decl.firing_time = Delay::Expr(expr);
        self
    }

    /// Set a fixed enabling time in ticks.
    pub fn enabling(mut self, ticks: u64) -> Self {
        self.decl.enabling_time = Delay::Fixed(ticks);
        self
    }

    /// Set an expression-valued enabling time.
    pub fn enabling_expr(mut self, expr: Expr) -> Self {
        self.decl.enabling_time = Delay::Expr(expr);
        self
    }

    /// Set the relative firing frequency (default 1.0).
    pub fn frequency(mut self, frequency: f64) -> Self {
        self.decl.frequency = frequency;
        self
    }

    /// Attach a predicate.
    pub fn predicate(mut self, predicate: Expr) -> Self {
        self.decl.predicate = Some(predicate);
        self
    }

    /// Attach a predicate from source text.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadExpression`] if the text does not parse.
    pub fn predicate_str(self, src: &str) -> Result<Self, NetError> {
        let name = self.decl.name.clone();
        let predicate = Expr::parse(src).map_err(|source| NetError::BadExpression {
            transition: name,
            source,
        })?;
        Ok(self.predicate(predicate))
    }

    /// Attach an action.
    pub fn action(mut self, action: Action) -> Self {
        self.decl.action = Some(action);
        self
    }

    /// Attach an action from source text.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadExpression`] if the text does not parse.
    pub fn action_str(self, src: &str) -> Result<Self, NetError> {
        let name = self.decl.name.clone();
        let action = Action::parse(src).map_err(|source| NetError::BadExpression {
            transition: name,
            source,
        })?;
        Ok(self.action(action))
    }

    /// Cap concurrent firings (models a k-server physical unit).
    pub fn max_concurrent(mut self, cap: u32) -> Self {
        self.decl.max_concurrent = Some(cap);
        self
    }

    /// Commit the transition to the net being built.
    pub fn add(self) {
        self.builder.transitions.push(self.decl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_order_is_irrelevant() {
        // Transition declared before the places it references.
        let mut b = NetBuilder::new("n");
        b.transition("t").input("a").output("b").add();
        b.place("a", 1);
        b.place("b", 0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", 0).place("a", 1);
        assert!(matches!(b.build(), Err(NetError::DuplicatePlace(_))));

        let mut b = NetBuilder::new("n");
        b.place("a", 0);
        b.transition("t").input("a").add();
        b.transition("t").input("a").add();
        assert!(matches!(b.build(), Err(NetError::DuplicateTransition(_))));
    }

    #[test]
    fn unknown_place_rejected() {
        let mut b = NetBuilder::new("n");
        b.transition("t").input("ghost").add();
        assert!(matches!(b.build(), Err(NetError::UnknownPlace { .. })));
    }

    #[test]
    fn zero_weight_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", 0);
        b.transition("t").input_weighted("a", 0).add();
        assert!(matches!(b.build(), Err(NetError::ZeroWeight { .. })));
    }

    #[test]
    fn invalid_frequency_rejected() {
        for freq in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut b = NetBuilder::new("n");
            b.place("a", 0);
            b.transition("t").input("a").frequency(freq).add();
            assert!(
                matches!(b.build(), Err(NetError::InvalidFrequency { .. })),
                "frequency {freq} should be rejected"
            );
        }
    }

    #[test]
    fn frequencies_whose_sum_overflows_are_rejected() {
        let build = |freq: f64| {
            let mut b = NetBuilder::new("n");
            b.place("idle", 1);
            for t in ["fa", "fb"] {
                b.transition(t).input("idle").frequency(freq).add();
            }
            b.build()
        };
        assert_eq!(
            build(1e308),
            Err(NetError::FrequencyOverflow {
                transition: "fb".into()
            })
        );
        assert!(build(1e307).is_ok());
    }

    #[test]
    fn zero_concurrency_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", 0);
        b.transition("t").input("a").max_concurrent(0).add();
        assert!(matches!(b.build(), Err(NetError::ZeroConcurrency { .. })));
    }

    #[test]
    fn bad_predicate_text_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("a", 0);
        let r = b.transition("t").predicate_str("1 +");
        assert!(matches!(r, Err(NetError::BadExpression { .. })));
    }

    #[test]
    fn env_declarations_reach_initial_env() {
        let mut b = NetBuilder::new("n");
        b.var("x", 7).table("tab", vec![1, 2, 3]);
        let net = b.build().unwrap();
        assert_eq!(net.initial_env().int("x").unwrap(), 7);
        assert_eq!(net.initial_env().table("tab").unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn duplicate_arcs_merge() {
        let mut b = NetBuilder::new("n");
        b.place("a", 1);
        b.place("out", 0);
        b.transition("t")
            .input("a")
            .input("a") // merges to weight 2
            .output("out")
            .output_weighted("out", 2) // merges to weight 3
            .inhibitor_at("a", 3)
            .inhibitor_at("a", 2) // strictest threshold wins
            .add();
        let net = b.build().unwrap();
        let t = net.transition(net.transition_id("t").unwrap());
        assert_eq!(t.inputs(), &[(net.place_id("a").unwrap(), 2)]);
        assert_eq!(t.outputs(), &[(net.place_id("out").unwrap(), 3)]);
        assert_eq!(t.inhibitors(), &[(net.place_id("a").unwrap(), 2)]);
        // One token on `a` must NOT enable the weight-2 merged arc.
        assert!(!t.marking_enabled(&net.initial_marking()));
    }

    #[test]
    fn places_empty_declares_many() {
        let mut b = NetBuilder::new("n");
        b.places_empty(["x", "y", "z"]);
        let net = b.build().unwrap();
        assert_eq!(net.place_count(), 3);
        assert_eq!(net.initial_marking().total_tokens(), 0);
    }
}
