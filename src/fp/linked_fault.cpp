#include "fp/linked_fault.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "fp/semantics.hpp"

namespace mtg {

LinkedLayout LinkedLayout::single_cell() {
  LinkedLayout layout;
  layout.num_cells = 1;
  layout.a1_pos = -1;
  layout.a2_pos = -1;
  layout.v_pos = 0;
  return layout;
}

LinkedLayout LinkedLayout::two_cell(std::int8_t a1, std::int8_t a2,
                                    std::uint8_t v) {
  LinkedLayout layout;
  layout.num_cells = 2;
  layout.a1_pos = a1;
  layout.a2_pos = a2;
  layout.v_pos = v;
  return layout;
}

LinkedLayout LinkedLayout::three_cell(std::uint8_t a1, std::uint8_t a2,
                                      std::uint8_t v) {
  LinkedLayout layout;
  layout.num_cells = 3;
  layout.a1_pos = static_cast<std::int8_t>(a1);
  layout.a2_pos = static_cast<std::int8_t>(a2);
  layout.v_pos = v;
  return layout;
}

std::string LinkedLayout::to_string() const {
  if (num_cells == 1) return "v";
  // Collect the role labels per position, then join in address order.
  std::vector<std::string> labels(num_cells);
  auto add = [&](int pos, const std::string& role) {
    if (pos < 0) return;
    if (!labels[pos].empty()) labels[pos] += '=';
    labels[pos] += role;
  };
  if (a1_pos >= 0 && a1_pos == a2_pos) {
    add(a1_pos, "a");
  } else {
    add(a1_pos, "a1");
    add(a2_pos, "a2");
  }
  add(v_pos, "v");
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += '<';
    out += labels[i];
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const LinkedLayout& layout) {
  return os << layout.to_string();
}

namespace {

void validate_layout(const FaultPrimitive& fp1, const FaultPrimitive& fp2,
                     const LinkedLayout& layout) {
  require(layout.num_cells >= 1 && layout.num_cells <= 3,
          "linked fault layout: 1..3 distinct cells");
  require((fp1.is_two_cell()) == (layout.a1_pos >= 0),
          "layout a1 position must be present iff FP1 is a two-cell FP");
  require((fp2.is_two_cell()) == (layout.a2_pos >= 0),
          "layout a2 position must be present iff FP2 is a two-cell FP");
  require(layout.v_pos < layout.num_cells, "layout victim position out of range");
  require(layout.a1_pos < static_cast<int>(layout.num_cells) &&
              layout.a2_pos < static_cast<int>(layout.num_cells),
          "layout aggressor position out of range");
  require(layout.a1_pos != static_cast<int>(layout.v_pos) ||
              layout.a1_pos < 0,
          "FP1's aggressor must differ from the victim");
  require(layout.a2_pos != static_cast<int>(layout.v_pos) ||
              layout.a2_pos < 0,
          "FP2's aggressor must differ from the victim");
  // Every position 0..num_cells-1 must be used by some role.
  unsigned used = 1u << layout.v_pos;
  if (layout.a1_pos >= 0) used |= 1u << layout.a1_pos;
  if (layout.a2_pos >= 0) used |= 1u << layout.a2_pos;
  const std::size_t used_cells = popcount64(used);
  if (used_cells != layout.num_cells) {
    throw Error("layout uses " + std::to_string(used_cells) +
                " cells but declares " + std::to_string(layout.num_cells));
  }
}

/// Applies one sensitizing operation to a good machine and a faulty machine,
/// reporting whether a read returned a value different from the fault-free
/// one.
bool apply_sense_op(const FaultPrimitive& fp, std::size_t a_cell,
                    std::size_t v_cell, MemoryState& good,
                    FaultyMemory& faulty) {
  if (fp.is_state_fault()) return false;  // fires via settling, no operation
  const std::size_t cell = fp.op_on_aggressor() ? a_cell : v_cell;
  switch (fp.sense_op()) {
    case SenseOp::W0:
      good.set(cell, Bit::Zero);
      faulty.write(cell, Bit::Zero);
      return false;
    case SenseOp::W1:
      good.set(cell, Bit::One);
      faulty.write(cell, Bit::One);
      return false;
    case SenseOp::Rd: {
      const Bit expected = good.get(cell);
      const Bit observed = faulty.read(cell);
      return observed != expected;
    }
    case SenseOp::Wt:
      faulty.wait(cell);  // the fault-free machine is unaffected by a pause
      return false;
    case SenseOp::None:
      break;
  }
  throw InternalError("apply_sense_op: unreachable");
}

}  // namespace

LinkCheck check_link(const FaultPrimitive& fp1, const FaultPrimitive& fp2,
                     const LinkedLayout& layout) {
  validate_layout(fp1, fp2, layout);

  // -- Structural conditions (Definitions 6/7) -------------------------
  if (fp2.fault_value() != flip(fp1.fault_value())) {
    return {"F2 != not(F1): FP2 cannot mask FP1"};
  }
  if (fp2.v_state() != fp1.fault_value()) {
    return {"I2 != Fv1: FP2 is not sensitized on the faulty victim"};
  }
  if (fp1.is_immediately_detecting()) {
    return {"FP1 is exposed by its own sensitizing read (RDF/IRF-like)"};
  }
  if (fp1.is_state_fault() && fp2.is_state_fault()) {
    return {"two state faults cannot form a well-defined link"};
  }

  // -- Canonical chain on the semantics engine --------------------------
  const std::size_t k = layout.num_cells;
  const std::size_t v = layout.v_pos;
  const std::size_t a1 = layout.a1_pos >= 0 ? layout.a1_pos : v;
  const std::size_t a2 = layout.a2_pos >= 0 ? layout.a2_pos : v;

  MemoryState good(k);
  good.set(v, fp1.v_state());
  if (fp1.is_two_cell()) good.set(a1, fp1.a_state());
  if (fp2.is_two_cell() && static_cast<int>(a2) != layout.a1_pos &&
      a2 != v) {
    good.set(a2, fp2.a_state());
  }

  FaultyMemory faulty(k, {BoundFp(fp1, a1, v), BoundFp(fp2, a2, v)});
  faulty.power_on(good);

  bool mismatch = apply_sense_op(fp1, a1, v, good, faulty);
  const bool deviation_after_fp1 = faulty.state() != good;
  mismatch |= apply_sense_op(fp2, a2, v, good, faulty);

  if (faulty.fire_count(0) == 0 || !deviation_after_fp1) {
    return {"FP1 did not fire (or caused no deviation) in the chain"};
  }
  if (faulty.fire_count(1) == 0) {
    return {"FP2 is not sensitized in the state reached by FP1"};
  }
  return {"", !mismatch && faulty.state() == good};
}

LinkedFault::LinkedFault(FaultPrimitive fp1, FaultPrimitive fp2,
                         LinkedLayout layout)
    : LinkedFault(fp1, fp2, layout, check_link(fp1, fp2, layout)) {}

LinkedFault::LinkedFault(const FaultPrimitive& fp1, const FaultPrimitive& fp2,
                         const LinkedLayout& layout, const LinkCheck& check)
    : fp1_(fp1),
      fp2_(fp2),
      layout_(layout),
      fully_masking_(check.fully_masked) {
  if (!check.linked()) {
    throw Error("FPs are not linked (" + fp1_.notation() + " -> " +
                fp2_.notation() + " [" + layout_.to_string() +
                "]): " + check.reason);
  }
  // One buffer sized up front: this runs for every fault of every list.
  const std::string name1 = fp1_.name();
  const std::string name2 = fp2_.name();
  const std::string cells = layout_.to_string();
  name_.reserve(name1.size() + name2.size() + cells.size() + 8);
  name_.append(name1).append("→").append(name2).append(" [").append(cells);
  name_ += ']';
}

std::optional<LinkedFault> LinkedFault::link(const FaultPrimitive& fp1,
                                             const FaultPrimitive& fp2,
                                             const LinkedLayout& layout) {
  const LinkCheck check = check_link(fp1, fp2, layout);
  if (!check.linked()) return std::nullopt;
  return LinkedFault(fp1, fp2, layout, check);
}

std::ostream& operator<<(std::ostream& os, const LinkedFault& lf) {
  return os << lf.name();
}

std::vector<LinkedAfpPair> expand_linked_afps(
    const LinkedFault& lf, const std::vector<std::size_t>& cells,
    std::size_t model_cells) {
  require(cells.size() == static_cast<std::size_t>(lf.num_cells()),
          "expand_linked_afps: cell mapping size mismatch");
  require(std::is_sorted(cells.begin(), cells.end()) &&
              std::adjacent_find(cells.begin(), cells.end()) == cells.end(),
          "expand_linked_afps: cell mapping must be strictly ascending");
  for (std::size_t c : cells) {
    require(c < model_cells, "expand_linked_afps: cell index out of range");
  }

  const LinkedLayout& layout = lf.layout();
  const std::size_t v = cells[layout.v_pos];
  const std::size_t a1 = layout.a1_pos >= 0 ? cells[layout.a1_pos] : v;
  const std::size_t a2 = layout.a2_pos >= 0 ? cells[layout.a2_pos] : v;
  const FaultPrimitive& fp1 = lf.fp1();
  const FaultPrimitive& fp2 = lf.fp2();

  std::vector<std::size_t> free_cells;
  for (std::size_t c = 0; c < model_cells; ++c) {
    if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
      free_cells.push_back(c);
    }
  }

  // The sensitizing op of an FP at bound cells, annotated for the fault-free
  // value read from `state`.
  auto bound_op = [](const FaultPrimitive& fp, std::size_t a_cell,
                     std::size_t v_cell,
                     const SmallState& state) -> std::vector<AddressedOp> {
    if (fp.is_state_fault()) return {};
    const std::size_t cell = fp.op_on_aggressor() ? a_cell : v_cell;
    switch (fp.sense_op()) {
      case SenseOp::W0: return {AddressedOp{cell, Op::W0}};
      case SenseOp::W1: return {AddressedOp{cell, Op::W1}};
      case SenseOp::Rd: return {AddressedOp{cell, make_read(state.get(cell))}};
      case SenseOp::Wt: return {AddressedOp{cell, Op::T}};
      case SenseOp::None: break;
    }
    throw InternalError("bound_op: unreachable");
  };

  std::vector<LinkedAfpPair> result;
  const std::size_t backgrounds = std::size_t{1} << free_cells.size();
  for (std::size_t bg = 0; bg < backgrounds; ++bg) {
    SmallState i1(model_cells);
    i1.set(v, fp1.v_state());
    if (fp1.is_two_cell()) i1.set(a1, fp1.a_state());
    if (fp2.is_two_cell() && a2 != a1 && a2 != v) i1.set(a2, fp2.a_state());
    for (std::size_t i = 0; i < free_cells.size(); ++i) {
      i1.set(free_cells[i], (bg >> i) & 1u ? Bit::One : Bit::Zero);
    }

    LinkedAfpPair pair;
    // AFP1 = (I1, Es1, Fv1, Gv1)
    pair.afp1.initial = i1;
    pair.afp1.victim = v;
    pair.afp1.aggressor = a1;
    pair.afp1.sensitize = bound_op(fp1, a1, v, i1);
    SmallState gv1 = i1;
    for (const AddressedOp& aop : pair.afp1.sensitize) {
      if (is_write(aop.op)) gv1.set(aop.cell, written_value(aop.op));
    }
    pair.afp1.good = gv1;
    SmallState fv1 = gv1;
    fv1.set(v, fp1.fault_value());
    pair.afp1.faulty = fv1;

    // Chain feasibility for FP2 in Fv1 (aggressor state may have been moved
    // by FP1's operation).
    if (fp2.is_two_cell() && fv1.get(a2) != fp2.a_state()) continue;
    MTG_INTERNAL_CHECK(fv1.get(v) == fp2.v_state(),
                       "linked AFP chain lost the I2 = Fv1 invariant");

    // AFP2 = (I2 = Fv1, Es2, Fv2, Gv2)
    pair.afp2.initial = fv1;
    pair.afp2.victim = v;
    pair.afp2.aggressor = a2;
    pair.afp2.sensitize = bound_op(fp2, a2, v, fv1);
    SmallState gv2 = fv1;
    for (const AddressedOp& aop : pair.afp2.sensitize) {
      if (is_write(aop.op)) gv2.set(aop.cell, written_value(aop.op));
    }
    pair.afp2.good = gv2;
    SmallState fv2 = gv2;
    fv2.set(v, fp2.fault_value());
    pair.afp2.faulty = fv2;

    pair.tp1 = to_test_pattern(pair.afp1);
    pair.tp2 = to_test_pattern(pair.afp2);
    result.push_back(std::move(pair));
  }
  return result;
}

}  // namespace mtg
