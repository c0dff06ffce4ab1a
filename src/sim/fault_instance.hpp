// Fault instantiation: binding abstract faults (FP + relative address
// layout) to concrete addresses of an n-cell memory.
//
// A fault model with a k-cell layout yields one instance per strictly
// ascending assignment of k distinct addresses to its layout positions, so
// every relative address order the layout describes is exercised at every
// position in the memory (including the boundary cells, which matters for
// march address-order corner cases).
//
// Every layout of one FP fault has the same relative cell order, so all of
// them behave alike (one behaviour class, see PackedFaultSim::signature());
// coverage evaluation therefore needs only their count, kept_layouts(), and
// the lowest layout.  A decoder fault's instances split into at most two
// classes by bit `bit` of the corrupted address; over the whole address set
// their weights are closed-form counts, and only a capped sample smaller than
// the set is walked address by address (decoder_sample()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fp/fault_list.hpp"
#include "fp/semantics.hpp"

namespace mtg {

/// A concrete fault: one or two FPs — or one bound decoder fault — bound to
/// addresses of the simulated memory.  `fault_index` identifies the
/// originating entry of the fault list (simple faults first, then linked,
/// then decoder faults).
struct FaultInstance {
  std::vector<BoundFp> fps;
  /// At most one bound decoder fault; mutually exclusive with `fps`
  /// (fp/decoder_fault.hpp — the deviation is in the addressing).
  std::vector<BoundDecoder> decoders;
  std::size_t fault_index = 0;
  std::string description;
};

/// Number of layouts instantiate() keeps for a fault with a k-cell layout
/// on an n-cell memory under `cap` (0 = unlimited): min(cap, C(n, k)), with
/// C(n, k) saturating at uint64 max.  Exact in every sampling tier.
std::uint64_t kept_layouts(std::size_t n, std::size_t k, std::size_t cap);

/// Instances of a simple fault on an `n`-cell memory, lowest layout first.
/// `max_instances` bounds the enumeration for large memories (0 =
/// unlimited): when the full ascending-subset enumeration exceeds the bound,
/// a deterministic boundary-biased sample of exactly `max_instances`
/// layouts is used instead — always including the lowest ({0..k-1}) and
/// (above one layout) highest ({n-k..n-1}) layouts, with the rest evenly
/// spaced or drawn from a seeded PRNG (the seed depends only on
/// fault_index, n and k, so sampling is identical across runs and thread
/// counts).  The count is kept_layouts(n, k, max_instances).
std::vector<FaultInstance> instantiate(const SimpleFault& fault, std::size_t n,
                                       std::size_t fault_index,
                                       std::size_t max_instances = 0);

/// Instances of a linked fault on an `n`-cell memory (same `max_instances`
/// contract as the simple-fault overload).
std::vector<FaultInstance> instantiate(const LinkedFault& fault, std::size_t n,
                                       std::size_t fault_index,
                                       std::size_t max_instances = 0);

/// Number of corrupted addresses a < n a decoder fault can bind: those
/// whose partner a XOR 2^bit also fits (every a for NoAccess), and none when
/// the memory has no address line `bit` (2^bit >= n).
std::size_t decoder_address_count(const DecoderFault& fault, std::size_t n);

/// The corrupted addresses instantiate() binds, ascending: all of them, or
/// above `max_instances` (0 = unlimited) a deterministic evenly-spaced
/// sample that always includes the lowest and highest valid addresses.
/// O(kept addresses): each sample ordinal maps to its address arithmetically.
std::vector<std::size_t> decoder_sample(const DecoderFault& fault,
                                        std::size_t n,
                                        std::size_t max_instances = 0);

/// The instance binding `fault` at corrupted address `a` (partner derived).
FaultInstance bind_decoder(const DecoderFault& fault, std::size_t a,
                           std::size_t fault_index);

/// Instances of a decoder fault on an `n`-cell memory: bind_decoder() over
/// decoder_sample().  Returns no instances — not an error — when the memory
/// has no address line `bit`: the fault cannot exist there, and
/// evaluate_coverage reports it uncovered at that size.
std::vector<FaultInstance> instantiate(const DecoderFault& fault,
                                       std::size_t n, std::size_t fault_index,
                                       std::size_t max_instances = 0);

/// Instances of every fault in the list; fault_index follows the list order
/// (all simple faults, then all linked faults, then all decoder faults).
/// `max_instances_per_fault` applies the per-fault bound described at
/// instantiate().
std::vector<FaultInstance> instantiate_all(
    const FaultList& list, std::size_t n,
    std::size_t max_instances_per_fault = 0);

/// One behaviour class of one fault: its first sampled instance, standing
/// for the `weight` sampled instances the class holds.  Instances of a fault
/// with equal PackedFaultSim::signature() evolve identically against every
/// test, so simulating the representative decides all of them.
struct BehaviourClass {
  FaultInstance representative;
  std::size_t weight = 0;
};

/// The behaviour classes of instantiate_all(list, n, max_instances_per_fault)
/// in fault order and, within a fault, in order of first sampled instance;
/// the weights sum to that call's instance count.  An FP fault is one class
/// (all its layouts share their relative cell order), weighted by
/// kept_layouts(), or none when its layout needs more than n cells (where
/// instantiate() throws), just as a decoder fault with no address in range
/// has none; a decoder fault has at most two, split by bit `bit` of the
/// corrupted address.  Over the whole address set (cap 0, or cap at least
/// decoder_address_count()) both weights are counted in O(1); a smaller cap
/// tallies decoder_sample(), O(cap) at any n.  Nothing is instantiated beyond
/// the representatives.
std::vector<BehaviourClass> behaviour_classes(
    const FaultList& list, std::size_t n,
    std::size_t max_instances_per_fault = 0);

/// Number of faults in the list (simple + linked) == 1 + max fault_index.
std::size_t fault_count(const FaultList& list);

/// Name of fault #index in the flattened (simple, then linked) order.
std::string fault_name(const FaultList& list, std::size_t index);

}  // namespace mtg
