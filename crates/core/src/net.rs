//! The net structure: places, transitions, arcs, delays.

use crate::expr::{Action, Env, Expr};
use crate::marking::Marking;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a place within a [`Net`].
///
/// Indices are dense (`0..net.place_count()`), so analysis tools may use
/// them directly as vector indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(usize);

impl PlaceId {
    /// Construct from a raw index.
    pub const fn new(index: usize) -> Self {
        PlaceId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a transition within a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(usize);

impl TransitionId {
    /// Construct from a raw index.
    pub const fn new(index: usize) -> Self {
        TransitionId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A condition holder (paper §1: conditions correspond to places).
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    name: String,
    initial_tokens: u32,
}

impl Place {
    pub(crate) fn new(name: String, initial_tokens: u32) -> Self {
        Place {
            name,
            initial_tokens,
        }
    }

    /// The place's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tokens on this place in the initial marking.
    pub fn initial_tokens(&self) -> u32 {
        self.initial_tokens
    }
}

/// A time annotation on a transition: a constant tick count or an
/// expression evaluated (against the variable environment) each time the
/// transition fires — the paper's table-driven delays (§3).
#[derive(Debug, Clone, PartialEq)]
pub enum Delay {
    /// A fixed number of ticks.
    Fixed(u64),
    /// An expression producing the number of ticks; evaluated at
    /// start-of-firing (firing time) or when the transition becomes
    /// enabled (enabling time). Must yield a non-negative integer.
    Expr(Expr),
}

impl Delay {
    /// The zero delay.
    pub const ZERO: Delay = Delay::Fixed(0);

    /// Whether the delay is the constant zero.
    pub fn is_zero_constant(&self) -> bool {
        matches!(self, Delay::Fixed(0))
    }

    /// Whether the delay is a constant.
    pub fn is_fixed(&self) -> bool {
        matches!(self, Delay::Fixed(_))
    }
}

impl Default for Delay {
    fn default() -> Self {
        Delay::ZERO
    }
}

impl From<u64> for Delay {
    fn from(ticks: u64) -> Self {
        Delay::Fixed(ticks)
    }
}

impl From<Expr> for Delay {
    fn from(e: Expr) -> Self {
        Delay::Expr(e)
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delay::Fixed(t) => write!(f, "{t}"),
            Delay::Expr(e) => write!(f, "({e})"),
        }
    }
}

/// An event (paper §1: events correspond to transitions).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    name: String,
    inputs: Vec<(PlaceId, u32)>,
    outputs: Vec<(PlaceId, u32)>,
    inhibitors: Vec<(PlaceId, u32)>,
    firing_time: Delay,
    enabling_time: Delay,
    frequency: f64,
    predicate: Option<Expr>,
    action: Option<Action>,
    max_concurrent: Option<u32>,
}

impl Transition {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        inputs: Vec<(PlaceId, u32)>,
        outputs: Vec<(PlaceId, u32)>,
        inhibitors: Vec<(PlaceId, u32)>,
        firing_time: Delay,
        enabling_time: Delay,
        frequency: f64,
        predicate: Option<Expr>,
        action: Option<Action>,
        max_concurrent: Option<u32>,
    ) -> Self {
        Transition {
            name,
            inputs,
            outputs,
            inhibitors,
            firing_time,
            enabling_time,
            frequency,
            predicate,
            action,
            max_concurrent,
        }
    }

    /// The transition's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input arcs as `(place, weight)`; the weight is the number of
    /// tokens consumed (e.g. 2 for the paper's two-words-per-prefetch).
    pub fn inputs(&self) -> &[(PlaceId, u32)] {
        &self.inputs
    }

    /// Output arcs as `(place, weight)`.
    pub fn outputs(&self) -> &[(PlaceId, u32)] {
        &self.outputs
    }

    /// Inhibitor arcs as `(place, threshold)`: the transition is disabled
    /// while the place holds `>= threshold` tokens (threshold 1 is the
    /// paper's plain "dark bubble" inhibitor).
    pub fn inhibitors(&self) -> &[(PlaceId, u32)] {
        &self.inhibitors
    }

    /// The firing time: tokens are inside the transition for this long.
    pub fn firing_time(&self) -> &Delay {
        &self.firing_time
    }

    /// The enabling time: the transition must be continuously enabled for
    /// this long before it may fire.
    pub fn enabling_time(&self) -> &Delay {
        &self.enabling_time
    }

    /// Relative firing frequency used to resolve conflicts `[WPS86]`.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// Data-dependent precondition, if any.
    pub fn predicate(&self) -> Option<&Expr> {
        self.predicate.as_ref()
    }

    /// Data transformation executed at start-of-firing, if any.
    pub fn action(&self) -> Option<&Action> {
        self.action.as_ref()
    }

    /// Cap on simultaneous firings (`None` = unbounded, the classical
    /// timed-net semantics the paper uses for queueing servers, §4.2).
    pub fn max_concurrent(&self) -> Option<u32> {
        self.max_concurrent
    }

    /// Whether the marking alone (ignoring predicate and enabling time)
    /// permits this transition to fire.
    pub fn marking_enabled(&self, marking: &Marking) -> bool {
        self.inputs.iter().all(|&(p, w)| marking.covers(p, w))
            && self
                .inhibitors
                .iter()
                .all(|&(p, th)| !marking.covers(p, th))
    }

    /// Whether the transition uses `irand` anywhere (predicate, action,
    /// or expression-valued delays).
    pub fn uses_random(&self) -> bool {
        self.predicate.as_ref().is_some_and(Expr::uses_random)
            || self.action.as_ref().is_some_and(Action::uses_random)
            || matches!(&self.firing_time, Delay::Expr(e) if e.uses_random())
            || matches!(&self.enabling_time, Delay::Expr(e) if e.uses_random())
    }
}

/// An extended timed Petri net.
///
/// Construct with [`crate::NetBuilder`]; the structure is immutable once
/// built, which lets simulators and analyzers index places and
/// transitions densely.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    place_index: BTreeMap<String, PlaceId>,
    transition_index: BTreeMap<String, TransitionId>,
    initial_env: Env,
}

impl Net {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        places: Vec<Place>,
        transitions: Vec<Transition>,
        initial_env: Env,
    ) -> Self {
        let place_index = places
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), PlaceId::new(i)))
            .collect();
        let transition_index = transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), TransitionId::new(i)))
            .collect();
        Net {
            name,
            places,
            transitions,
            place_index,
            transition_index,
            initial_env,
        }
    }

    /// Start building a net with the given name.
    pub fn builder(name: impl Into<String>) -> crate::NetBuilder {
        crate::NetBuilder::new(name)
    }

    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Look up a place by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn place(&self, id: PlaceId) -> &Place {
        &self.places[id.index()]
    }

    /// Look up a transition by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Find a place by name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.place_index.get(name).copied()
    }

    /// Find a transition by name.
    pub fn transition_id(&self, name: &str) -> Option<TransitionId> {
        self.transition_index.get(name).copied()
    }

    /// Iterate places with their ids.
    pub fn places(&self) -> impl Iterator<Item = (PlaceId, &Place)> + '_ {
        self.places
            .iter()
            .enumerate()
            .map(|(i, p)| (PlaceId::new(i), p))
    }

    /// Iterate transitions with their ids.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (TransitionId::new(i), t))
    }

    /// The initial marking (from each place's initial token count).
    pub fn initial_marking(&self) -> Marking {
        self.places.iter().map(|p| p.initial_tokens).collect()
    }

    /// The initial variable environment (variables and tables declared at
    /// build time).
    pub fn initial_env(&self) -> &Env {
        &self.initial_env
    }

    /// Transitions that consume from `place`.
    pub fn consumers(&self, place: PlaceId) -> Vec<TransitionId> {
        self.transitions()
            .filter(|(_, t)| t.inputs.iter().any(|&(p, _)| p == place))
            .map(|(id, _)| id)
            .collect()
    }

    /// Transitions that produce into `place`.
    pub fn producers(&self, place: PlaceId) -> Vec<TransitionId> {
        self.transitions()
            .filter(|(_, t)| t.outputs.iter().any(|&(p, _)| p == place))
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether any transition uses `irand` (such nets cannot be analyzed
    /// by deterministic tools like reachability construction).
    pub fn uses_random(&self) -> bool {
        self.transitions.iter().any(Transition::uses_random)
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net {} ({} places, {} transitions)",
            self.name,
            self.places.len(),
            self.transitions.len()
        )?;
        for (_, p) in self.places() {
            writeln!(f, "  place {} = {}", p.name(), p.initial_tokens())?;
        }
        for (_, t) in self.transitions() {
            write!(f, "  trans {}", t.name())?;
            for &(p, w) in t.inputs() {
                write!(f, " <{}x{}", self.place(p).name(), w)?;
            }
            for &(p, w) in t.outputs() {
                write!(f, " >{}x{}", self.place(p).name(), w)?;
            }
            for &(p, th) in t.inhibitors() {
                write!(f, " !{}@{}", self.place(p).name(), th)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    fn two_place_net() -> Net {
        let mut b = NetBuilder::new("t");
        b.place("a", 2);
        b.place("b", 0);
        b.transition("move").input("a").output("b").add();
        b.build().unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let net = two_place_net();
        let a = net.place_id("a").unwrap();
        assert_eq!(net.place(a).name(), "a");
        assert_eq!(net.place(a).initial_tokens(), 2);
        assert!(net.place_id("zzz").is_none());
        let m = net.transition_id("move").unwrap();
        assert_eq!(net.transition(m).name(), "move");
    }

    #[test]
    fn initial_marking_reflects_declarations() {
        let net = two_place_net();
        let m = net.initial_marking();
        assert_eq!(m.tokens(net.place_id("a").unwrap()), 2);
        assert_eq!(m.tokens(net.place_id("b").unwrap()), 0);
    }

    #[test]
    fn consumers_and_producers() {
        let net = two_place_net();
        let a = net.place_id("a").unwrap();
        let b = net.place_id("b").unwrap();
        let mv = net.transition_id("move").unwrap();
        assert_eq!(net.consumers(a), vec![mv]);
        assert_eq!(net.producers(b), vec![mv]);
        assert!(net.consumers(b).is_empty());
    }

    #[test]
    fn marking_enabled_respects_weights_and_inhibitors() {
        let mut b = NetBuilder::new("t");
        b.place("in", 3);
        b.place("stop", 0);
        b.place("out", 0);
        b.transition("go")
            .input_weighted("in", 2)
            .inhibitor("stop")
            .output("out")
            .add();
        let net = b.build().unwrap();
        let go = net.transition_id("go").unwrap();
        let mut m = net.initial_marking();
        assert!(net.transition(go).marking_enabled(&m));
        m.set(net.place_id("in").unwrap(), 1);
        assert!(!net.transition(go).marking_enabled(&m), "weight 2 unmet");
        m.set(net.place_id("in").unwrap(), 2);
        m.set(net.place_id("stop").unwrap(), 1);
        assert!(!net.transition(go).marking_enabled(&m), "inhibited");
    }

    #[test]
    fn delay_constants() {
        assert!(Delay::ZERO.is_zero_constant());
        assert!(Delay::from(3u64).is_fixed());
    }

    #[test]
    fn display_lists_structure() {
        let net = two_place_net();
        let s = net.to_string();
        assert!(s.contains("place a = 2"));
        assert!(s.contains("trans move"));
    }
}
