#include "sim/fault_instance.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <set>

#include "common/error.hpp"

namespace mtg {
namespace {

/// All strictly ascending k-subsets of {0..n-1}.
std::vector<std::vector<std::size_t>> ascending_subsets(std::size_t n,
                                                        std::size_t k) {
  std::vector<std::vector<std::size_t>> result;
  if (k == 0 || k > n) return result;
  std::vector<std::size_t> pick(k);
  for (std::size_t i = 0; i < k; ++i) pick[i] = i;
  while (true) {
    result.push_back(pick);
    std::size_t i = k;
    bool advanced = false;
    while (i > 0) {
      --i;
      if (pick[i] != i + n - k) {
        ++pick[i];
        for (std::size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return result;
  }
}

/// splitmix64 — the same stdlib-independent PRNG as the fuzz harness, so
/// sampled layouts are identical on every platform.
struct SplitMix {
  std::uint64_t state;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }
};

/// Position of the j-th of `keep` evenly spaced picks among `count` items:
/// the first and last are always picked.
std::size_t evenly_spaced(std::size_t j, std::size_t keep, std::size_t count) {
  return keep == 1 ? 0 : j * (count - 1) / (keep - 1);
}

/// The layouts instantiate() binds: all ascending k-subsets when they fit
/// `cap` (or cap == 0), a deterministic sample otherwise (see the header
/// comment on instantiate()).  Exactly kept_layouts(n, k, cap) of them.
std::vector<std::vector<std::size_t>> bounded_subsets(std::size_t n,
                                                      std::size_t k,
                                                      std::size_t cap,
                                                      std::uint64_t seed) {
  const std::uint64_t count = kept_layouts(n, k, 0);
  if (cap == 0 || count <= cap) return ascending_subsets(n, k);

  // Moderate overshoot: enumerate fully, keep `cap` evenly spaced layouts
  // (the first and last among them).
  if (count <= 4 * static_cast<std::uint64_t>(cap)) {
    const auto all = ascending_subsets(n, k);
    std::vector<std::vector<std::size_t>> picked;
    picked.reserve(cap);
    for (std::size_t j = 0; j < cap; ++j) {
      picked.push_back(all[evenly_spaced(j, cap, all.size())]);
    }
    return picked;
  }

  // Large memories: boundary layouts plus seeded random distinct layouts.
  // A std::set keeps the result lexicographically sorted (the enumeration
  // order of ascending_subsets) and deduplicated.
  std::set<std::vector<std::size_t>> chosen;
  std::vector<std::size_t> lowest(k), highest(k);
  std::iota(lowest.begin(), lowest.end(), 0);
  std::iota(highest.begin(), highest.end(), n - k);
  chosen.insert(lowest);
  chosen.insert(highest);
  SplitMix rng{seed};
  // count > 4·cap, so every draw is fresh with probability above 3/4 and
  // the loop ends with exactly `cap` layouts.
  while (chosen.size() < cap) {
    std::vector<std::size_t> pick;
    pick.reserve(k);
    while (pick.size() < k) {
      const std::size_t v = rng.below(n);
      if (std::find(pick.begin(), pick.end(), v) == pick.end()) {
        pick.push_back(v);
      }
    }
    std::sort(pick.begin(), pick.end());
    chosen.insert(std::move(pick));
  }
  std::vector<std::vector<std::size_t>> result(chosen.begin(), chosen.end());
  if (result.size() > cap) result.resize(cap);  // cap == 1 keeps the lowest
  return result;
}

std::uint64_t layout_seed(std::size_t fault_index, std::size_t n,
                          std::size_t k) {
  return (static_cast<std::uint64_t>(fault_index) + 1) *
             0x9E3779B97F4A7C15ull ^
         (static_cast<std::uint64_t>(n) << 8) ^ static_cast<std::uint64_t>(k);
}

/// The instance binding a simple fault's layout positions to `cells`.
FaultInstance bind(const SimpleFault& fault,
                   const std::vector<std::size_t>& cells,
                   std::size_t fault_index) {
  const std::size_t v = cells[fault.v_pos];
  const std::size_t a = fault.a_pos >= 0 ? cells[fault.a_pos] : v;
  FaultInstance inst;
  inst.fault_index = fault_index;
  inst.fps.push_back(BoundFp(fault.fp, a, v));
  inst.description = fault.name + " @ " + inst.fps[0].to_string();
  return inst;
}

/// The instance binding a linked fault's layout positions to `cells`.
FaultInstance bind(const LinkedFault& fault,
                   const std::vector<std::size_t>& cells,
                   std::size_t fault_index) {
  const LinkedLayout& layout = fault.layout();
  const std::size_t v = cells[layout.v_pos];
  const std::size_t a1 = layout.a1_pos >= 0 ? cells[layout.a1_pos] : v;
  const std::size_t a2 = layout.a2_pos >= 0 ? cells[layout.a2_pos] : v;
  FaultInstance inst;
  inst.fault_index = fault_index;
  inst.fps.push_back(BoundFp(fault.fp1(), a1, v));
  inst.fps.push_back(BoundFp(fault.fp2(), a2, v));
  inst.description = fault.name() + " @ v=" + std::to_string(v) +
                     " a1=" + std::to_string(a1) + " a2=" + std::to_string(a2);
  return inst;
}

/// The number k of cells an FP fault's layout binds; throws unless an
/// n-cell memory has them.
template <typename Fault>
std::size_t layout_cells(const Fault& fault, std::size_t n) {
  const std::size_t k = static_cast<std::size_t>(fault.num_cells());
  require(n >= k, "memory too small for the fault layout");
  return k;
}

/// instantiate() of an FP fault: bind() over bounded_subsets().
template <typename Fault>
std::vector<FaultInstance> instantiate_layouts(const Fault& fault,
                                               std::size_t n,
                                               std::size_t fault_index,
                                               std::size_t max_instances) {
  const std::size_t k = layout_cells(fault, n);
  std::vector<FaultInstance> result;
  for (const auto& cells : bounded_subsets(
           n, k, max_instances, layout_seed(fault_index, n, k))) {
    result.push_back(bind(fault, cells, fault_index));
  }
  return result;
}

}  // namespace

std::uint64_t kept_layouts(std::size_t n, std::size_t k, std::size_t cap) {
  if (k > n) return 0;
  std::uint64_t count = 1;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t factor = n - i;
    if (count > std::numeric_limits<std::uint64_t>::max() / factor) {
      count = std::numeric_limits<std::uint64_t>::max();
      break;
    }
    // Exact at every step: the running product of i+1 consecutive integers
    // is divisible by (i+1)!.
    count = count * factor / (i + 1);
  }
  return cap == 0 ? count : std::min<std::uint64_t>(count, cap);
}

std::vector<FaultInstance> instantiate(const SimpleFault& fault, std::size_t n,
                                       std::size_t fault_index,
                                       std::size_t max_instances) {
  return instantiate_layouts(fault, n, fault_index, max_instances);
}

std::vector<FaultInstance> instantiate(const LinkedFault& fault, std::size_t n,
                                       std::size_t fault_index,
                                       std::size_t max_instances) {
  return instantiate_layouts(fault, n, fault_index, max_instances);
}

std::size_t decoder_address_count(const DecoderFault& fault, std::size_t n) {
  // The broken address line must exist in an n-cell memory; a fault on a
  // line the memory does not have simply has no instances there.
  if (fault.bit >= 63 || (std::size_t{1} << fault.bit) >= n) return 0;
  if (fault.cls == DecoderFaultClass::NoAccess) return n;
  // Every address of a whole 2^(bit+1)-aligned period below n has its
  // partner in the same period.  In the partial period [whole, n) of
  // r = n - whole addresses, the first r - 2^bit of each half pair up.
  const std::size_t half = std::size_t{1} << fault.bit;
  const std::size_t whole = n / (2 * half) * (2 * half);
  const std::size_t rest = n - whole;
  return whole + (rest > half ? 2 * (rest - half) : 0);
}

std::vector<std::size_t> decoder_sample(const DecoderFault& fault,
                                        std::size_t n,
                                        std::size_t max_instances) {
  std::vector<std::size_t> addresses;
  const std::size_t count = decoder_address_count(fault, n);
  if (count == 0) return addresses;
  const std::size_t keep =
      max_instances == 0 ? count : std::min(count, max_instances);
  // The ordinal-th valid address in ascending order, by the period
  // decomposition of decoder_address_count: whole periods first, then the
  // paired prefixes of the two halves of the partial period.
  const std::size_t half = std::size_t{1} << fault.bit;
  const std::size_t whole = n / (2 * half) * (2 * half);
  const std::size_t low = count > whole ? (count - whole) / 2 : 0;
  const bool two_cell = fault.cls != DecoderFaultClass::NoAccess;
  addresses.reserve(keep);
  for (std::size_t j = 0; j < keep; ++j) {
    const std::size_t ordinal = evenly_spaced(j, keep, count);
    if (!two_cell || ordinal < whole + low) {
      addresses.push_back(ordinal);
    } else {
      addresses.push_back(ordinal - low + half);
    }
  }
  return addresses;
}

FaultInstance bind_decoder(const DecoderFault& fault, std::size_t a,
                           std::size_t fault_index) {
  const std::size_t partner = a ^ (std::size_t{1} << fault.bit);
  const std::size_t v =
      fault.cls == DecoderFaultClass::NoAccess ? a : partner;
  FaultInstance inst;
  inst.fault_index = fault_index;
  inst.decoders.push_back(BoundDecoder(fault, a, v));
  inst.description = fault.name() + " @ " + inst.decoders[0].to_string();
  return inst;
}

std::vector<FaultInstance> instantiate(const DecoderFault& fault,
                                       std::size_t n, std::size_t fault_index,
                                       std::size_t max_instances) {
  const std::vector<std::size_t> sample =
      decoder_sample(fault, n, max_instances);
  std::vector<FaultInstance> result;
  result.reserve(sample.size());
  for (const std::size_t a : sample) {
    result.push_back(bind_decoder(fault, a, fault_index));
  }
  return result;
}

std::vector<FaultInstance> instantiate_all(const FaultList& list,
                                           std::size_t n,
                                           std::size_t max_instances_per_fault) {
  std::vector<FaultInstance> result;
  std::size_t index = 0;
  for (const SimpleFault& f : list.simple) {
    auto instances = instantiate(f, n, index++, max_instances_per_fault);
    result.insert(result.end(), instances.begin(), instances.end());
  }
  for (const LinkedFault& f : list.linked) {
    auto instances = instantiate(f, n, index++, max_instances_per_fault);
    result.insert(result.end(), instances.begin(), instances.end());
  }
  for (const DecoderFault& f : list.decoder) {
    auto instances = instantiate(f, n, index++, max_instances_per_fault);
    result.insert(result.end(), instances.begin(), instances.end());
  }
  return result;
}

std::vector<BehaviourClass> behaviour_classes(const FaultList& list,
                                              std::size_t n,
                                              std::size_t cap) {
  std::vector<BehaviourClass> classes;
  std::size_t index = 0;
  // Every layout of an FP fault has the same relative cell order: one class,
  // represented by the lowest layout {0..k-1} (the first instantiate() keeps
  // under every cap), weighted by the analytic layout count.
  const auto add_fp_fault = [&](const auto& fault) {
    std::vector<std::size_t> lowest(layout_cells(fault, n));
    std::iota(lowest.begin(), lowest.end(), std::size_t{0});
    classes.push_back(BehaviourClass{
        bind(fault, lowest, index),
        static_cast<std::size_t>(kept_layouts(n, lowest.size(), cap))});
    ++index;
  };
  for (const SimpleFault& fault : list.simple) add_fp_fault(fault);
  for (const LinkedFault& fault : list.linked) add_fp_fault(fault);
  // A decoder machine reads one address fact, bit `bit` of the corrupted
  // address: at most two classes per fault.
  for (const DecoderFault& fault : list.decoder) {
    const std::size_t count = decoder_address_count(fault, n);
    if (count > 0 && (cap == 0 || cap >= count)) {
      // The whole address set, in closed form: address 0 is the first with
      // the bit clear and 2^bit the first with it set.  Two-cell classes
      // pair a with a XOR 2^bit, so half the set has the bit set.
      const std::size_t half = std::size_t{1} << fault.bit;
      const std::size_t set =
          fault.cls != DecoderFaultClass::NoAccess
              ? count / 2
              : n / (2 * half) * half +
                    (n % (2 * half) > half ? n % (2 * half) - half : 0);
      classes.push_back(
          BehaviourClass{bind_decoder(fault, 0, index), count - set});
      classes.push_back(BehaviourClass{bind_decoder(fault, half, index), set});
    } else {
      // A capped sample: tally the sampled addresses, O(cap) at any n.
      std::array<std::size_t, 2> slot_of_bit = {0, 0};  // 1 + class position
      const std::size_t first = classes.size();
      for (const std::size_t a : decoder_sample(fault, n, cap)) {
        std::size_t& slot = slot_of_bit[(a >> fault.bit) & 1u];
        if (slot == 0) {
          classes.push_back(BehaviourClass{bind_decoder(fault, a, index), 0});
          slot = classes.size() - first;
        }
        ++classes[first + slot - 1].weight;
      }
    }
    ++index;
  }
  return classes;
}

std::size_t fault_count(const FaultList& list) {
  return list.simple.size() + list.linked.size() + list.decoder.size();
}

std::string fault_name(const FaultList& list, std::size_t index) {
  require(index < fault_count(list), "fault index out of range");
  if (index < list.simple.size()) return list.simple[index].name;
  index -= list.simple.size();
  if (index < list.linked.size()) return list.linked[index].name();
  return list.decoder[index - list.linked.size()].name();
}

}  // namespace mtg
