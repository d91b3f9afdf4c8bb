//! The flat arrays a netlist is stored in.
//!
//! A netlist holds a fixed number of heap blocks whatever its size:
//! [`Gates`] keeps one kind byte and one fanin offset per net plus one
//! shared fanin array, and [`Names`] keeps the names of named nets in
//! one string with a per-net slot and one per-name end offset. The
//! builder and the `.bench` parser write these arrays directly, and a
//! [`crate::Netlist`] takes them over as they are.

use crate::error::NetlistError;
use crate::gate::{Gate, GateKind, NetId};
use crate::hash::Xxh64;
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;

/// Every gate's kind and fanins: gate `i` has kind `kinds[i]` and reads
/// `fanins[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Gates {
    kinds: Vec<GateKind>,
    /// One offset per gate plus the end of the last gate's fanins.
    start: Vec<u32>,
    fanins: Vec<NetId>,
}

impl Gates {
    pub(crate) fn with_capacity(gates: usize, edges: usize) -> Self {
        let mut start = Vec::with_capacity(gates + 1);
        start.push(0);
        Gates {
            kinds: Vec::with_capacity(gates),
            start,
            fanins: Vec::with_capacity(edges),
        }
    }

    /// Number of gates (equivalently, nets).
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Number of fanin edges over all gates.
    pub(crate) fn edge_count(&self) -> usize {
        self.fanins.len()
    }

    /// Appends a gate and returns the net it drives.
    pub(crate) fn push(&mut self, kind: GateKind, fanin: impl IntoIterator<Item = NetId>) -> NetId {
        let id = NetId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.fanins.extend(fanin);
        self.start.push(self.fanins.len() as u32);
        id
    }

    /// Gate `i`'s fanins, for rewriting in place (the `.bench` parser
    /// resolves forward references after every gate is pushed).
    pub(crate) fn fanin_mut(&mut self, i: usize) -> &mut [NetId] {
        let edges = self.edges(i);
        &mut self.fanins[edges]
    }

    /// The positions of gate `i`'s fanins in the shared edge array.
    #[inline]
    pub(crate) fn edges(&self, i: usize) -> Range<usize> {
        let w = &self.start[i..i + 2];
        w[0] as usize..w[1] as usize
    }

    /// The kind of gate `i`.
    #[inline]
    pub(crate) fn kind(&self, i: usize) -> GateKind {
        self.kinds[i]
    }

    /// A by-value view of gate `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Gate<'_> {
        Gate {
            kind: self.kinds[i],
            fanin: &self.fanins[self.edges(i)],
        }
    }

    /// Views of every gate, in net order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = Gate<'_>> + '_ {
        let mut rest = self.fanins.as_slice();
        self.kinds
            .iter()
            .zip(self.start.windows(2))
            .map(move |(&kind, w)| {
                let (fanin, tail) = rest.split_at((w[1] - w[0]) as usize);
                rest = tail;
                Gate { kind, fanin }
            })
    }

    /// Hashes the three arrays as sections, in order: kinds, fanin
    /// offsets, fanins.
    pub(crate) fn hash(&self, h: &mut Xxh64) {
        h.section(&self.kinds);
        h.section(&self.start);
        h.section(&self.fanins);
    }

    /// Releases spare capacity left by incremental construction.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.start.shrink_to_fit();
        self.fanins.shrink_to_fit();
    }
}

/// Marks an unnamed net in [`Names::slot`] and an empty bucket in a
/// [`NameIndex`].
const UNNAMED: u32 = u32::MAX;

/// The names of a netlist's named nets, one copy each.
///
/// The `k`-th named net, in net order, is called
/// `text[ends[k - 1]..ends[k]]`, and `slot` maps every net to its `k`
/// (or [`UNNAMED`]), so a lookup by net is two loads. A lookup by name
/// is a scan: the one caller that resolves many names, the `.bench`
/// parser, uses the [`NameIndex`] that [`Names::seal`] builds, and the
/// index is dropped with the build.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    text: String,
    slot: Vec<u32>,
    ends: Vec<u32>,
}

impl Names {
    /// Names `net`, which must come after every net named so far.
    pub(crate) fn push(&mut self, net: NetId, name: &str) {
        debug_assert!(
            net.index() >= self.slot.len(),
            "names pushed out of net order"
        );
        self.slot.resize(net.index(), UNNAMED);
        self.slot.push(self.ends.len() as u32);
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
    }

    fn name(&self, k: u32) -> &str {
        let start = match k {
            0 => 0,
            _ => self.ends[k as usize - 1] as usize,
        };
        &self.text[start..self.ends[k as usize] as usize]
    }

    /// Finishes a store for `nets` nets after the last [`Names::push`]
    /// and returns an index by name for the rest of the build.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] for the first name, in net order,
    /// that repeats an earlier one.
    pub(crate) fn seal(&mut self, nets: usize) -> Result<NameIndex<'_>, NetlistError> {
        self.slot.resize(nets, UNNAMED);
        self.text.shrink_to_fit();
        self.slot.shrink_to_fit();
        self.ends.shrink_to_fit();
        NameIndex::build(self)
    }

    /// The name of `net`, if it has one.
    #[inline]
    pub(crate) fn get(&self, net: NetId) -> Option<&str> {
        match self.slot.get(net.index()) {
            Some(&k) if k != UNNAMED => Some(self.name(k)),
            _ => None,
        }
    }

    /// The first net, in net order, called `name`: a scan of every
    /// net.
    pub(crate) fn find(&self, name: &str) -> Option<NetId> {
        self.iter().find(|&(_, n)| n == name).map(|(id, _)| id)
    }

    /// Hashes the store as sections, in order: name text, name ends,
    /// per-net slots. Names are pushed in net order and the slots cover
    /// every net once sealed, so equal names give equal arrays.
    pub(crate) fn hash(&self, h: &mut Xxh64) {
        h.section(self.text.as_bytes());
        h.section(&self.ends);
        h.section(&self.slot);
    }

    /// Every named net with its name, in net order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NetId, &str)> + '_ {
        self.slot
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != UNNAMED)
            .map(|(i, &k)| (NetId(i as u32), self.name(k)))
    }
}

/// A hash index from name to net over a sealed [`Names`], alive only
/// while a netlist is being built.
///
/// Open addressing with linear probing over a power-of-two table at
/// most half full; a bucket holds a net index or [`UNNAMED`]. Names
/// are hashed with a per-process random key, so a tenant who picks
/// the names of an uploaded design cannot pick their buckets. No
/// result depends on the key: a lookup only compares names, and
/// nothing reads the table's layout.
pub(crate) struct NameIndex<'a> {
    names: &'a Names,
    key: RandomState,
    buckets: Vec<u32>,
}

impl<'a> NameIndex<'a> {
    /// Indexes every named net in net order.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] for the first name that is
    /// already indexed.
    fn build(names: &'a Names) -> Result<Self, NetlistError> {
        let mut index = NameIndex {
            names,
            key: RandomState::new(),
            buckets: vec![UNNAMED; (2 * names.ends.len()).next_power_of_two()],
        };
        for (net, name) in names.iter() {
            match index.probe(name) {
                Ok(_) => return Err(NetlistError::DuplicateName(name.into())),
                Err(empty) => index.buckets[empty] = net.0,
            }
        }
        Ok(index)
    }

    /// The bucket holding `name`, or else the empty bucket where it
    /// would go.
    fn probe(&self, name: &str) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut b = self.key.hash_one(name) as usize & mask;
        loop {
            match self.buckets[b] {
                UNNAMED => return Err(b),
                net if self.names.name(self.names.slot[net as usize]) == name => return Ok(b),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// The net called `name`.
    pub(crate) fn find(&self, name: &str) -> Option<NetId> {
        self.probe(name).ok().map(|b| NetId(self.buckets[b]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(names: &[(u32, &str)]) -> Result<Names, NetlistError> {
        let mut store = Names::default();
        for &(net, name) in names {
            store.push(NetId(net), name);
        }
        store.seal(9)?;
        Ok(store)
    }

    #[test]
    fn names_are_looked_up_both_ways_and_the_first_repeat_is_reported() {
        let store = sealed(&[(0, "b"), (2, "a[1]"), (3, ""), (7, "a")]).unwrap();
        for (net, name) in [(0, "b"), (2, "a[1]"), (3, ""), (7, "a")] {
            assert_eq!(store.get(NetId(net)), Some(name));
            assert_eq!(store.find(name), Some(NetId(net)));
        }
        assert_eq!(store.get(NetId(1)), None);
        assert_eq!(store.get(NetId(8)), None);
        assert_eq!(store.get(NetId(9)), None);
        assert_eq!(store.find("c"), None);
        assert_eq!(
            store.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            [0, 2, 3, 7]
        );
        // The error names the first net, in net order, whose name was
        // taken earlier: `y` repeats at net 2, before `x` does at net 3.
        for (names, dup) in [
            ([(0, "x"), (1, "y"), (2, "y"), (3, "x")], "y"),
            ([(0, "a"), (1, "b"), (2, "a"), (3, "b")], "a"),
        ] {
            assert_eq!(
                sealed(&names).unwrap_err(),
                NetlistError::DuplicateName(dup.into())
            );
        }
    }
}
