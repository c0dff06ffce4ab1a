#include "sim/prefix_sim.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

/// Lanes of `block` whose state (uniform, val, armed) equals the state of
/// lane `lane` of `ref`: each field XORed against the broadcast of that
/// lane's bit.
std::uint64_t same_state_lanes(const PackedFaultSim::Lanes& block,
                               const PackedFaultSim::Lanes& ref,
                               std::size_t lane) {
  const auto differs = [&](std::uint64_t word, std::uint64_t ref_word) {
    return word ^ (std::uint64_t{0} - ((ref_word >> lane) & 1u));
  };
  std::uint64_t diff = differs(block.uniform, ref.uniform);
  for (std::size_t s = 0; s < PackedFaultSim::kMaxSlots; ++s) {
    diff |= differs(block.val[s], ref.val[s]);
  }
  for (std::size_t f = 0; f < PackedFaultSim::kMaxFps; ++f) {
    diff |= differs(block.armed[f], ref.armed[f]);
  }
  return ~diff;
}

/// Runs fn(worker, begin, end) over [0, count) items in chunks of 32, on
/// `pool`, or inline when it is null.
void for_item_chunks(ThreadPool* pool, std::size_t count,
                     const ThreadPool::RangeFn& fn) {
  if (pool == nullptr) {
    fn(0, 0, count);
  } else {
    pool->parallel_for(count, /*chunk=*/32, fn);
  }
}

}  // namespace

PrefixEngine::PrefixEngine(std::size_t memory_size, bool record_checkpoints)
    : memory_size_(memory_size), record_checkpoints_(record_checkpoints) {
  any_before_.push_back(0);
  checkpoint_offsets_.push_back(0);
}

PrefixEngine::PrefixEngine(std::size_t memory_size,
                           const std::vector<BehaviourClass>& classes,
                           const MarchTest& prefix, bool record_checkpoints,
                           ThreadPool* pool)
    : PrefixEngine(memory_size, record_checkpoints) {
  items_.reserve(classes.size());
  for (const BehaviourClass& cls : classes) {
    const FaultInstance& instance = cls.representative;
    require_addresses_fit(instance, memory_size_);
    Item item;
    item.fault_index = instance.fault_index;
    item.sim = PackedFaultSim(instance);
    item.weight = cls.weight;
    items_.push_back(std::move(item));
  }
  prefix_ = prefix;
  append_plan(prefix, 0);
  sync_items(0, 0, pool);
}

bool PrefixEngine::all_detected(
    const std::vector<PackedFaultSim::Lanes>& blocks) {
  for (const PackedFaultSim::Lanes& block : blocks) {
    if ((block.active & ~block.detected) != 0) return false;
  }
  return true;
}

void PrefixEngine::append_plan(const MarchTest& test, std::size_t from) {
  for (std::size_t e = from; e < test.elements().size(); ++e) {
    const MarchElement& element = test.elements()[e];
    traces_.push_back(compile_element_trace(element));
    std::size_t any = any_before_.back();
    const std::size_t scenarios = std::size_t{2} << any;
    checkpoint_offsets_.push_back(checkpoint_offsets_.back() +
                                  (scenarios + 63) / 64);
    if (element.order() == AddressOrder::Any) {
      ordinals_.push_back(static_cast<int>(any));
      ++any;
    } else {
      ordinals_.push_back(-1);
    }
    any_before_.push_back(any);
  }
  require_any_order_cap(any_before_.back());
}

void PrefixEngine::expand_blocks(std::vector<PackedFaultSim::Lanes>& blocks,
                                 std::size_t old_combos) const {
  // Scenario sc = power_on · combos + mask (power-on major, ⇕-mask minor;
  // see sim/packed_engine.hpp).  The new ⇕ element is appended last, so it
  // takes the highest ordinal: its mask bit has weight `old_combos`, and the
  // source scenario of a new lane is found by clearing that bit.
  const std::size_t new_combos = 2 * old_combos;
  const std::size_t new_total = 2 * new_combos;
  std::vector<PackedFaultSim::Lanes> out((new_total + 63) / 64);
  for (std::size_t nb = 0; nb < out.size(); ++nb) {
    PackedFaultSim::Lanes& dst = out[nb];
    const std::size_t base = nb * 64;
    dst.active = scenario_active_word(base, new_total);
    for (std::size_t l = 0; l < 64; ++l) {
      const std::size_t sc = base + l;
      if (sc >= new_total) break;
      const std::size_t src = (sc / new_combos) * old_combos +
                              (sc % new_combos) % old_combos;
      const PackedFaultSim::Lanes& s = blocks[src / 64];
      const std::size_t sl = src % 64;
      const std::uint64_t bit = std::uint64_t{1} << l;
      if ((s.detected >> sl) & 1u) dst.detected |= bit;
      if ((s.uniform >> sl) & 1u) dst.uniform |= bit;
      for (std::size_t slot = 0; slot < PackedFaultSim::kMaxSlots; ++slot) {
        if ((s.val[slot] >> sl) & 1u) dst.val[slot] |= bit;
      }
      for (std::size_t f = 0; f < PackedFaultSim::kMaxFps; ++f) {
        if ((s.armed[f] >> sl) & 1u) dst.armed[f] |= bit;
      }
    }
  }
  blocks = std::move(out);
}

std::size_t PrefixEngine::run_steps(
    const Item& item, std::vector<PackedFaultSim::Lanes>& blocks,
    std::size_t& combos, const Step* steps, std::size_t count,
    std::vector<PackedFaultSim::Lanes>* checkpoints, Stats& local) const {
  for (std::size_t s = 0; s < count; ++s) {
    if (checkpoints != nullptr) {
      checkpoints->insert(checkpoints->end(), blocks.begin(), blocks.end());
    }
    const Step& step = steps[s];
    if (step.ordinal >= 0) {
      expand_blocks(blocks, combos);
      combos *= 2;
    }
    ++local.element_replays;
    bool done = true;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      PackedFaultSim::Lanes& lanes = blocks[b];
      // Frozen: detection is sticky, so a fully detected block never needs
      // another element (matching the full runner's early break; its stale
      // cell values are unobservable).
      if ((lanes.active & ~lanes.detected) == 0) continue;
      item.sim.run_element(
          lanes, *step.element, *step.trace,
          element_down_word(*step.element, step.ordinal, b * 64, combos));
      if ((lanes.active & ~lanes.detected) != 0) done = false;
    }
    if (done) return s;
  }
  return kNever;
}

void PrefixEngine::restore_checkpoint(
    const Item& item, std::size_t e,
    std::vector<PackedFaultSim::Lanes>& blocks) const {
  const auto first = item.checkpoints.begin();
  blocks.assign(first + static_cast<long>(checkpoint_offsets_[e]),
                first + static_cast<long>(checkpoint_offsets_[e + 1]));
}

void PrefixEngine::sync_items(std::size_t common, std::size_t previous_length,
                              ThreadPool* pool) {
  std::vector<Step> tail;
  tail.reserve(prefix_.elements().size() - common);
  for (std::size_t e = common; e < prefix_.elements().size(); ++e) {
    tail.push_back(Step{&prefix_.elements()[e], &traces_[e], ordinals_[e]});
  }

  std::atomic<std::size_t> replays{0};
  const auto sync = [&](std::size_t, std::size_t begin, std::size_t end) {
    Stats local;
    for (std::size_t i = begin; i < end; ++i) {
      Item& item = items_[i];
      if (item.excluded) continue;
      // Detected strictly within the common prefix: the appended/new suffix
      // replays an unchanged detection — the instance stays dropped.
      if (item.detected_at != kNever && item.detected_at < common) continue;
      if (common == 0) {
        // Syncing from scratch (construction, or a rewind diverging at the
        // first element): the state before element 0 is the power-on block.
        PackedFaultSim::Lanes lanes;
        item.sim.power_on_block(lanes, 0, /*combos=*/1);
        item.blocks.assign(1, lanes);
        item.checkpoints.clear();
        item.done = false;
        item.detected_at = kNever;
      } else if (item.done || common < previous_length) {
        // The item's state is past `common` (frozen at detected_at + 1, or
        // a live item being rewound): restore the checkpoint before it.
        // The offsets of checkpoints [0, common] are the old plan's too.
        restore_checkpoint(item, common, item.blocks);
        item.checkpoints.resize(checkpoint_offsets_[common]);  // re-recorded
        item.done = false;
        item.detected_at = kNever;
      }
      std::size_t combos = std::size_t{1} << any_before_[common];
      const std::size_t at = run_steps(
          item, item.blocks, combos, tail.data(), tail.size(),
          record_checkpoints_ ? &item.checkpoints : nullptr, local);
      if (at != kNever) {
        item.detected_at = common + at;
        item.done = true;
      }
    }
    replays += local.element_replays;
  };

  for_item_chunks(pool, items_.size(), sync);
  stats_.element_replays += replays.load();
}

std::size_t PrefixEngine::undetected_instances() const {
  std::size_t count = 0;
  for (const Item& item : items_) count += item.done ? 0 : item.weight;
  return count;
}

std::size_t PrefixEngine::num_instances() const {
  std::size_t count = 0;
  for (const Item& item : items_) count += item.weight;
  return count;
}

std::set<std::size_t> PrefixEngine::undetected_fault_indices() const {
  std::set<std::size_t> out;
  for (const Item& item : items_) {
    if (!item.done) out.insert(item.fault_index);
  }
  return out;
}

void PrefixEngine::exclude_faults(const std::set<std::size_t>& fault_indices) {
  for (Item& item : items_) {
    if (fault_indices.count(item.fault_index) > 0) {
      item.done = true;
      item.excluded = true;
    }
  }
}

PrefixEngine::CandidateWords PrefixEngine::pack_candidates(
    const std::vector<const MarchElement*>& candidates,
    const std::vector<const ElementTrace*>& traces) {
  require(traces.size() == candidates.size(),
          "prefix engine: packing needs one trace per candidate");
  const auto word_key = [&](std::size_t c) {
    return std::make_pair(candidates[c]->order() == AddressOrder::Down,
                          candidates[c]->cost());
  };
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return word_key(x) < word_key(y);
                   });
  CandidateWords packed;
  packed.candidates = candidates.size();
  std::vector<CandidateWords::Word>& words = packed.words;
  for (const std::size_t c : order) {
    const bool down = word_key(c).first;
    const double cost = static_cast<double>(word_key(c).second);
    if (words.empty() ||
        words.back().members.size() == ElementBatch::kLanes ||
        words.back().batch.down != down || words.back().cost != cost) {
      words.push_back(CandidateWords::Word{ElementBatch(down), {}, cost});
    }
    CandidateWords::Word& word = words.back();
    word.batch.add(*candidates[c], *traces[c]);
    word.members.push_back(c);
  }
  return packed;
}

std::vector<std::size_t> PrefixEngine::gain_scan(const CandidateWords& packed,
                                                 ThreadPool* pool) const {
  // Units: every live item's distinct undetected lane states, across all of
  // its blocks, each weighted by item.weight × the lanes that share it.
  struct Unit {
    const PackedFaultSim* sim;
    const PackedFaultSim::Lanes* block;  ///< holds the state in lane `lane`
    std::size_t lane;
    std::size_t weight;
  };
  std::vector<Unit> units;
  std::vector<std::uint64_t> pending;  ///< per block: lanes in no unit yet
  std::size_t undetected_start = 0;
  for (const Item& item : items_) {
    if (item.done) continue;
    const std::vector<PackedFaultSim::Lanes>& blocks = item.blocks;
    pending.resize(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      pending[b] = blocks[b].active & ~blocks[b].detected;
    }
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      while (pending[b] != 0) {
        const std::size_t lane =
            static_cast<std::size_t>(__builtin_ctzll(pending[b]));
        std::size_t lanes = 0;
        for (std::size_t c = b; c < blocks.size(); ++c) {
          const std::uint64_t same =
              pending[c] & same_state_lanes(blocks[c], blocks[b], lane);
          pending[c] &= ~same;
          lanes += popcount64(same);
        }
        units.push_back(Unit{&item.sim, &blocks[b], lane, item.weight * lanes});
        undetected_start += item.weight * lanes;
      }
    }
  }

  const std::vector<CandidateWords::Word>& words = packed.words;
  std::vector<std::size_t> gains(packed.candidates, 0);
  std::atomic<double> bound{0.0};
  const auto scan = [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) {
      const CandidateWords::Word& word = words[w];
      const std::size_t count = word.members.size();
      std::array<std::size_t, ElementBatch::kLanes> g{};
      std::size_t top = 0;  ///< the largest g[j]
      std::size_t remaining = undetected_start;
      // One cost per word: it is hopeless once its best member is.
      const auto hopeless = [&] {
        return static_cast<double>(top + remaining) / word.cost < bound.load();
      };
      bool pruned = false;
      for (const Unit& unit : units) {
        remaining -= unit.weight;
        PackedFaultSim::LanesOf<BatchWord> trial =
            ElementBatch::broadcast(*unit.block, unit.lane);
        const BatchWord newly = unit.sim->run_batch(trial, word.batch);
        // Lane l belongs to member l.
        for (std::size_t half = 0; half < 2; ++half) {
          for (std::uint64_t bits = newly[half]; bits != 0; bits &= bits - 1) {
            std::size_t& gain =
                g[64 * half + static_cast<std::size_t>(__builtin_ctzll(bits))];
            gain += unit.weight;
            top = std::max(top, gain);
          }
        }
        if (hopeless()) {
          pruned = true;
          break;
        }
      }
      for (std::size_t j = 0; j < count; ++j) gains[word.members[j]] = g[j];
      const double best = static_cast<double>(top) / word.cost;
      // A finished word's scores are exact: raise the shared bound.
      double seen = bound.load();
      while (!pruned && best > seen &&
             !bound.compare_exchange_weak(seen, best)) {
      }
    }
  };

  if (pool == nullptr) {
    scan(0, 0, words.size());
  } else {
    pool->parallel_for(words.size(), /*chunk=*/1, scan);
  }
  return gains;
}

void PrefixEngine::commit(const MarchElement& candidate,
                          const ElementTrace& trace, ThreadPool* pool) {
  approximate_ = true;
  const std::uint64_t down =
      candidate.order() == AddressOrder::Down ? ~std::uint64_t{0} : 0;
  for_item_chunks(pool, items_.size(),
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      Item& item = items_[i];
                      if (item.done) continue;
                      for (PackedFaultSim::Lanes& block : item.blocks) {
                        // Fully detected blocks stay frozen.
                        if ((block.active & ~block.detected) == 0) continue;
                        item.sim.run_element(block, candidate, trace, down);
                      }
                      item.done = all_detected(item.blocks);
                    }
                  });
}

void PrefixEngine::advance(const MarchTest& test, ThreadPool* pool) {
  require(!approximate_,
          "prefix engine: exact advance after a greedy commit()");
  const std::vector<MarchElement>& old_elements = prefix_.elements();
  const std::vector<MarchElement>& new_elements = test.elements();
  std::size_t common = 0;
  while (common < old_elements.size() && common < new_elements.size() &&
         old_elements[common] == new_elements[common]) {
    ++common;
  }
  const std::size_t previous_length = old_elements.size();
  if (common == previous_length && common == new_elements.size()) return;
  require(common == previous_length || record_checkpoints_,
          "prefix engine: rewinding an edited test requires checkpoints");

  traces_.resize(common);
  ordinals_.resize(common);
  any_before_.resize(common + 1);
  checkpoint_offsets_.resize(common + 1);
  prefix_ = test;
  append_plan(test, common);
  sync_items(common, previous_length, pool);
}

PrefixEngine PrefixEngine::clone_undetected() const {
  require(!approximate_,
          "prefix engine: cloning requires exact prefix state");
  PrefixEngine out(memory_size_, /*record_checkpoints=*/false);
  out.prefix_ = prefix_;
  out.traces_ = traces_;
  out.ordinals_ = ordinals_;
  out.any_before_ = any_before_;
  out.checkpoint_offsets_ = checkpoint_offsets_;
  for (const Item& item : items_) {
    if (item.done) continue;
    Item copy;
    copy.fault_index = item.fault_index;
    copy.sim = item.sim;
    copy.weight = item.weight;
    copy.blocks = item.blocks;
    out.items_.push_back(std::move(copy));
  }
  return out;
}

PrefixEngine::Verdict PrefixEngine::verdict(std::size_t item) const {
  require(!approximate_, "prefix engine: verdicts require exact state");
  const Item& it = items_.at(item);
  if (it.excluded) return Verdict::Excluded;
  return it.done ? Verdict::Detected : Verdict::Undetected;
}

std::size_t PrefixEngine::dropped_instances() const {
  std::size_t count = 0;
  for (const Item& item : items_) {
    if (item.done && !item.excluded) count += item.weight;
  }
  return count;
}

bool PrefixEngine::trial_covers(std::size_t edit,
                                const MarchElement* replacement,
                                ThreadPool* pool) {
  require(!approximate_ && record_checkpoints_,
          "prefix engine: trials require exact state with checkpoints");
  require(edit < prefix_.elements().size(),
          "prefix engine: trial edit index out of range");

  // The trial plan: the (optional) replacement of element `edit`, then the
  // recorded tail.  ⇕ ordinals are renumbered for the trial's own scenario
  // space (dropping a ⇕ element shifts the tail's ordinals down).
  ElementTrace replacement_trace;
  std::vector<Step> plan;
  plan.reserve(prefix_.elements().size() - edit);
  std::size_t any = any_before_[edit];
  if (replacement != nullptr) {
    replacement_trace = compile_element_trace(*replacement);
    int ordinal = -1;
    if (replacement->order() == AddressOrder::Any) {
      ordinal = static_cast<int>(any);
      ++any;
    }
    plan.push_back(Step{replacement, &replacement_trace, ordinal});
  }
  for (std::size_t e = edit + 1; e < prefix_.elements().size(); ++e) {
    const MarchElement& element = prefix_.elements()[e];
    int ordinal = -1;
    if (element.order() == AddressOrder::Any) {
      ordinal = static_cast<int>(any);
      ++any;
    }
    plan.push_back(Step{&element, &traces_[e], ordinal});
  }

  // Every item at or below the final first escape is visited (the index
  // only falls, and only after its own item ran), so trial_replays_ holds a
  // fresh count for each of them; entries above it are stale and unread.
  trial_replays_.resize(items_.size());
  std::atomic<std::size_t> first_escape{kNever};
  for_item_chunks(pool, items_.size(), [&](std::size_t, std::size_t begin,
                                           std::size_t end) {
    std::vector<PackedFaultSim::Lanes> scratch;
    for (std::size_t i = begin; i < end && i < first_escape.load(); ++i) {
      const Item& item = items_[i];
      trial_replays_[i] = 0;
      if (item.excluded) continue;
      // Detected strictly before the edit: the trial replays that detection
      // unchanged (the prefix below `edit` is untouched).
      if (item.detected_at != kNever && item.detected_at < edit) continue;
      restore_checkpoint(item, edit, scratch);
      std::size_t combos = std::size_t{1} << any_before_[edit];
      Stats local;
      const bool escaped = run_steps(item, scratch, combos, plan.data(),
                                     plan.size(), nullptr, local) == kNever;
      trial_replays_[i] = local.element_replays;
      if (escaped) {
        std::size_t seen = first_escape.load();
        while (i < seen && !first_escape.compare_exchange_weak(seen, i)) {
        }
        break;
      }
    }
  });
  const std::size_t escape = first_escape.load();
  const std::size_t counted = escape == kNever ? items_.size() : escape + 1;
  stats_.element_replays +=
      std::accumulate(trial_replays_.begin(),
                      trial_replays_.begin() + static_cast<long>(counted),
                      std::size_t{0});
  return escape == kNever;
}

}  // namespace mtg
