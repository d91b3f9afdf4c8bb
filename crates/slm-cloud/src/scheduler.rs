//! Region scheduling: carving boards into partial-reconfiguration
//! slots and packing admitted tenants onto them.
//!
//! Each board is a [`Floorplan`] partitioned into a fixed lattice of
//! rectangular regions (one tenant per region — the PR-slot model the
//! paper's threat model assumes). Placement is best-fit by capacity
//! with ties broken by `(board, region)` index, so the same admission
//! sequence always lands on the same slots regardless of worker count.
//!
//! Co-residency is policy, not accident: [`CoResidencyPolicy`] decides
//! which tenants may share a board, which makes the attacker/victim
//! pairing of the paper an *explicit scenario* the operator opts into
//! (via [`CoResidencyPolicy::allow`]) rather than an emergent property
//! of bin-packing.

use serde::{Deserialize, Serialize};
use slm_fabric::floorplan::{Floorplan, Rect};

/// One schedulable partial-reconfiguration slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RegionSpec {
    /// Board the slot lives on.
    pub board: usize,
    /// Slot index within the board.
    pub index: usize,
    /// The slot's rectangle on the board's grid.
    pub rect: Rect,
    /// Capacity in grid cells ([`Rect::area`]).
    pub capacity_cells: usize,
}

/// Where a tenant landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Board index.
    pub board: usize,
    /// Slot index within the board.
    pub region: usize,
}

/// A placed tenant, as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occupant {
    /// Tenant name.
    pub tenant: String,
    /// Whether admission flagged the tenant (admitted-with-flags).
    pub flagged: bool,
}

/// How freely tenants may share a board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CoResidencyMode {
    /// Any admitted tenants may co-reside (the multi-tenant default —
    /// and the paper's attack surface).
    #[default]
    Open,
    /// A flagged tenant may share a board only with tenants it is
    /// explicitly paired with; unflagged tenants co-reside freely.
    IsolateFlagged,
}

/// The operator's co-residency rules.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoResidencyPolicy {
    /// Isolation mode.
    pub mode: CoResidencyMode,
    /// Unordered tenant pairs exempt from isolation — the explicit
    /// attacker/victim co-residency scenario.
    pub allow_pairs: Vec<(String, String)>,
}

impl CoResidencyPolicy {
    /// The permissive default: everyone shares.
    pub fn open() -> Self {
        CoResidencyPolicy::default()
    }

    /// Flagged tenants are quarantined unless explicitly paired.
    pub fn isolate_flagged() -> Self {
        CoResidencyPolicy {
            mode: CoResidencyMode::IsolateFlagged,
            allow_pairs: Vec::new(),
        }
    }

    /// Adds an (unordered) co-residency exemption for two tenants.
    pub fn allow(mut self, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.allow_pairs.push((a.into(), b.into()));
        self
    }

    fn pair_allowed(&self, a: &str, b: &str) -> bool {
        self.allow_pairs
            .iter()
            .any(|(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Whether `candidate` may join a board already hosting
    /// `neighbours`.
    fn permits(&self, candidate: &Occupant, neighbours: &[&Occupant]) -> bool {
        match self.mode {
            CoResidencyMode::Open => true,
            CoResidencyMode::IsolateFlagged => neighbours.iter().all(|n| {
                (!candidate.flagged && !n.flagged)
                    || self.pair_allowed(&candidate.tenant, &n.tenant)
            }),
        }
    }
}

/// Capacity-aware best-fit packer over a fleet of partitioned boards.
#[derive(Debug, Clone)]
pub struct RegionScheduler {
    regions: Vec<RegionSpec>,
    occupants: Vec<Option<Occupant>>,
    per_board: usize,
}

impl RegionScheduler {
    /// Carves `boards` copies of `plan` into a `rows × cols` lattice
    /// of slots each.
    pub fn new(boards: usize, plan: &Floorplan, rows: usize, cols: usize) -> Self {
        let rects = plan.partition(rows, cols);
        let per_board = rects.len();
        let mut regions = Vec::with_capacity(boards * per_board);
        for board in 0..boards {
            for (index, &rect) in rects.iter().enumerate() {
                regions.push(RegionSpec {
                    board,
                    index,
                    rect,
                    capacity_cells: rect.area(),
                });
            }
        }
        let occupants = vec![None; regions.len()];
        RegionScheduler {
            regions,
            occupants,
            per_board,
        }
    }

    /// Best-fit placement: the smallest free slot that covers
    /// `demand_cells` on a board `policy` permits, ties broken by
    /// `(board, region)` — fully deterministic.
    ///
    /// Returns `None` when no free slot fits or the policy refuses
    /// every board with room.
    pub fn place(
        &mut self,
        occupant: Occupant,
        demand_cells: usize,
        policy: &CoResidencyPolicy,
    ) -> Option<Placement> {
        let mut best: Option<usize> = None;
        for (i, region) in self.regions.iter().enumerate() {
            if self.occupants[i].is_some() || region.capacity_cells < demand_cells {
                continue;
            }
            let neighbours: Vec<&Occupant> = self.board_occupants(region.board).collect();
            if !policy.permits(&occupant, &neighbours) {
                continue;
            }
            match best {
                Some(b) if self.regions[b].capacity_cells <= region.capacity_cells => {}
                _ => best = Some(i),
            }
        }
        let slot = best?;
        let spec = self.regions[slot];
        self.occupants[slot] = Some(occupant);
        Some(Placement {
            board: spec.board,
            region: spec.index,
        })
    }

    /// Frees a slot, returning its occupant (if the slot was held).
    pub fn release(&mut self, placement: Placement) -> Option<Occupant> {
        let i = self.flat_index(placement)?;
        self.occupants[i].take()
    }

    /// Number of unoccupied slots.
    pub fn free_regions(&self) -> usize {
        self.occupants.iter().filter(|o| o.is_none()).count()
    }

    /// The occupants currently resident on `board`.
    fn board_occupants(&self, board: usize) -> impl Iterator<Item = &Occupant> {
        let start = board * self.per_board;
        self.occupants
            .iter()
            .skip(start)
            .take(self.per_board)
            .filter_map(Option::as_ref)
    }

    fn flat_index(&self, placement: Placement) -> Option<usize> {
        let i = placement.board * self.per_board + placement.region;
        (placement.region < self.per_board && i < self.regions.len()).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupant(name: &str, flagged: bool) -> Occupant {
        Occupant {
            tenant: name.into(),
            flagged,
        }
    }

    fn sched(boards: usize) -> RegionScheduler {
        RegionScheduler::new(boards, &Floorplan::zynq7020(), 2, 2)
    }

    #[test]
    fn best_fit_is_deterministic_and_capacity_aware() {
        let mut s = sched(1);
        assert_eq!(s.free_regions(), 4);
        // Equal-capacity lattice: ties break to the lowest index.
        let p = s.place(occupant("a", false), 100, &CoResidencyPolicy::open());
        assert_eq!(
            p,
            Some(Placement {
                board: 0,
                region: 0
            })
        );
        let p2 = s.place(occupant("b", false), 100, &CoResidencyPolicy::open());
        assert_eq!(
            p2,
            Some(Placement {
                board: 0,
                region: 1
            })
        );
        assert_eq!(s.free_regions(), 2);
    }

    #[test]
    fn oversized_demand_is_refused_and_release_frees() {
        let mut s = sched(1);
        let cap = s.regions[0].capacity_cells;
        assert!(s
            .place(occupant("big", false), cap + 1, &CoResidencyPolicy::open())
            .is_none());
        let p = s
            .place(occupant("a", false), cap, &CoResidencyPolicy::open())
            .unwrap();
        assert_eq!(s.release(p).unwrap().tenant, "a");
        assert_eq!(s.free_regions(), 4);
        assert!(s.release(p).is_none(), "double release is a no-op");
    }

    #[test]
    fn isolate_flagged_quarantines_without_a_pair() {
        let mut s = sched(2);
        let policy = CoResidencyPolicy::isolate_flagged();
        let victim = s.place(occupant("victim", false), 1, &policy).unwrap();
        assert_eq!(victim.board, 0);
        // The flagged tenant cannot join board 0; it lands on board 1.
        let flagged = s.place(occupant("eve", true), 1, &policy).unwrap();
        assert_eq!(flagged.board, 1);
        // A second unflagged tenant avoids eve's board too.
        let p = s.place(occupant("bob", false), 1, &policy).unwrap();
        assert_eq!(p.board, 0);
    }

    #[test]
    fn allow_pair_makes_co_residency_an_explicit_scenario() {
        let mut s = sched(1);
        let policy = CoResidencyPolicy::isolate_flagged().allow("victim", "eve");
        s.place(occupant("victim", false), 1, &policy).unwrap();
        // With only one board, eve fits only if the pairing is allowed.
        let p = s.place(occupant("eve", true), 1, &policy);
        assert!(p.is_some(), "explicitly paired attacker co-resides");
        // A third, unpaired flagged tenant is still refused.
        assert!(s.place(occupant("mallory", true), 1, &policy).is_none());
    }

    #[test]
    fn open_mode_ignores_flags() {
        let mut s = sched(1);
        let policy = CoResidencyPolicy::open();
        s.place(occupant("victim", false), 1, &policy).unwrap();
        assert!(s.place(occupant("eve", true), 1, &policy).is_some());
    }
}
