#include "fp/fault_list.hpp"

#include <sstream>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "fp/fp_library.hpp"

namespace mtg {

SimpleFault SimpleFault::single(FaultPrimitive fp) {
  require(!fp.is_two_cell(), "SimpleFault::single needs a single-cell FP");
  std::string name = fp.name() + " [v]";
  return SimpleFault{std::move(fp), -1, 0, std::move(name)};
}

SimpleFault SimpleFault::coupled(FaultPrimitive fp, bool aggressor_below) {
  require(fp.is_two_cell(), "SimpleFault::coupled needs a two-cell FP");
  std::string name = fp.name() + (aggressor_below ? " [a<v]" : " [v<a]");
  return SimpleFault{std::move(fp),
                     static_cast<std::int8_t>(aggressor_below ? 0 : 1),
                     static_cast<std::uint8_t>(aggressor_below ? 1 : 0),
                     std::move(name)};
}

namespace {

/// Appends every FP1 → FP2 over `fp1s` × `fp2s` that links in `layout`.
void append_links(std::vector<LinkedFault>& out,
                  const std::vector<FaultPrimitive>& fp1s,
                  const std::vector<FaultPrimitive>& fp2s,
                  const LinkedLayout& layout) {
  for (const FaultPrimitive& fp1 : fp1s) {
    for (const FaultPrimitive& fp2 : fp2s) {
      if (auto lf = LinkedFault::link(fp1, fp2, layout)) {
        out.push_back(std::move(*lf));
      }
    }
  }
}

}  // namespace

std::vector<LinkedFault> enumerate_single_cell_linked_faults() {
  std::vector<LinkedFault> result;
  const auto fps = all_single_cell_static_fps();
  append_links(result, fps, fps, LinkedLayout::single_cell());
  return result;
}

std::vector<LinkedFault> enumerate_two_cell_linked_faults() {
  std::vector<LinkedFault> result;
  const auto single = all_single_cell_static_fps();
  const auto coupled = all_two_cell_static_fps();

  for (const bool aggressor_below : {true, false}) {
    const std::int8_t a_pos = aggressor_below ? 0 : 1;
    const std::uint8_t v_pos = aggressor_below ? 1 : 0;

    // (a) CF linked with CF, same aggressor cell.
    append_links(result, coupled, coupled,
                 LinkedLayout::two_cell(a_pos, a_pos, v_pos));
    // (b) CF linked with a single-cell FP on the victim.
    append_links(result, coupled, single,
                 LinkedLayout::two_cell(a_pos, -1, v_pos));
    // (c) single-cell FP linked with a CF sharing the victim.
    append_links(result, single, coupled,
                 LinkedLayout::two_cell(-1, a_pos, v_pos));
  }
  return result;
}

std::vector<LinkedFault> enumerate_three_cell_linked_faults() {
  std::vector<LinkedFault> result;
  const auto coupled = all_two_cell_static_fps();
  // All orderings of (a1, a2, v) over three distinct addresses.
  static constexpr std::uint8_t kOrderings[6][3] = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}};
  for (const FaultPrimitive& fp1 : coupled) {
    for (const FaultPrimitive& fp2 : coupled) {
      for (const auto& ord : kOrderings) {
        const auto layout = LinkedLayout::three_cell(ord[0], ord[1], ord[2]);
        if (auto lf = LinkedFault::link(fp1, fp2, layout)) {
          result.push_back(std::move(*lf));
        }
      }
    }
  }
  return result;
}

std::vector<LinkedFault> enumerate_retention_linked_faults() {
  std::vector<LinkedFault> result;
  std::vector<FaultPrimitive> fps = all_single_cell_static_fps();
  for (Bit s : {Bit::Zero, Bit::One}) fps.push_back(FaultPrimitive::drf(s));
  for (const FaultPrimitive& fp1 : fps) {
    for (const FaultPrimitive& fp2 : fps) {
      if (!fp1.is_retention() && !fp2.is_retention()) continue;
      if (auto lf = LinkedFault::link(fp1, fp2, LinkedLayout::single_cell())) {
        result.push_back(std::move(*lf));
      }
    }
  }
  return result;
}

bool targets_retention(const FaultList& list) {
  for (const SimpleFault& fault : list.simple) {
    if (fault.fp.is_retention()) return true;
  }
  for (const LinkedFault& fault : list.linked) {
    if (fault.fp1().is_retention() || fault.fp2().is_retention()) return true;
  }
  return false;
}

FaultList fault_list_2() {
  FaultList list;
  list.name = "Fault List #2 (single-cell static linked faults)";
  list.linked = enumerate_single_cell_linked_faults();
  return list;
}

FaultList fault_list_1() {
  FaultList list;
  list.name = "Fault List #1 (single-, two- and three-cell static linked faults)";
  list.linked = enumerate_single_cell_linked_faults();
  for (LinkedFault& lf : enumerate_two_cell_linked_faults()) {
    list.linked.push_back(std::move(lf));
  }
  for (LinkedFault& lf : enumerate_three_cell_linked_faults()) {
    list.linked.push_back(std::move(lf));
  }
  return list;
}

FaultList standard_simple_static_faults() {
  FaultList list;
  list.name = "All simple static faults";
  for (const FaultPrimitive& fp : all_single_cell_static_fps()) {
    list.simple.push_back(SimpleFault::single(fp));
  }
  for (const FaultPrimitive& fp : all_two_cell_static_fps()) {
    list.simple.push_back(SimpleFault::coupled(fp, true));
    list.simple.push_back(SimpleFault::coupled(fp, false));
  }
  return list;
}

FaultList retention_fault_list() {
  FaultList list;
  list.name = "Data-retention faults (DRF/CFrt)";
  for (const FaultPrimitive& fp : all_retention_fps()) {
    if (fp.is_two_cell()) {
      list.simple.push_back(SimpleFault::coupled(fp, true));
      list.simple.push_back(SimpleFault::coupled(fp, false));
    } else {
      list.simple.push_back(SimpleFault::single(fp));
    }
  }
  list.linked = enumerate_retention_linked_faults();
  return list;
}

std::string to_canonical_string(const FaultList& list) {
  // Field-by-field, in list order: the canonical form must not depend on
  // display names (SimpleFault::name, LinkedFault::name carry unicode and
  // could drift cosmetically) — only on what the simulator actually
  // consumes.
  std::ostringstream out;
  out << "faultlist v1\n";
  for (const SimpleFault& fault : list.simple) {
    out << "simple " << fault.fp.notation() << " a_pos=" << int(fault.a_pos)
        << " v_pos=" << int(fault.v_pos) << "\n";
  }
  for (const LinkedFault& fault : list.linked) {
    const LinkedLayout& layout = fault.layout();
    out << "linked " << fault.fp1().notation() << " -> "
        << fault.fp2().notation() << " cells=" << int(layout.num_cells)
        << " a1=" << int(layout.a1_pos) << " a2=" << int(layout.a2_pos)
        << " v=" << int(layout.v_pos) << "\n";
  }
  for (const DecoderFault& fault : list.decoder) {
    out << "decoder cls=" << int(static_cast<unsigned char>(fault.cls))
        << " bit=" << fault.bit
        << " wired=" << (fault.wired == Bit::One ? 1 : 0) << "\n";
  }
  return out.str();
}

std::uint64_t stable_hash(const FaultList& list) {
  return stable_hash64(to_canonical_string(list));
}

FaultList decoder_fault_list(std::size_t max_address_bits) {
  require(max_address_bits >= 1 && max_address_bits < 63,
          "decoder_fault_list: address bit count out of range");
  FaultList list;
  list.name = "Address-decoder faults (" + std::to_string(max_address_bits) +
              " address lines)";
  for (std::size_t bit = 0; bit < max_address_bits; ++bit) {
    list.decoder.push_back(
        DecoderFault{DecoderFaultClass::NoAccess, bit, Bit::Zero});
    list.decoder.push_back(
        DecoderFault{DecoderFaultClass::WrongCell, bit, Bit::Zero});
    list.decoder.push_back(
        DecoderFault{DecoderFaultClass::MultipleCells, bit, Bit::Zero});
    list.decoder.push_back(
        DecoderFault{DecoderFaultClass::MultipleCells, bit, Bit::One});
    list.decoder.push_back(
        DecoderFault{DecoderFaultClass::MultipleAddresses, bit, Bit::Zero});
  }
  return list;
}

const std::vector<BuiltinFaultList>& builtin_fault_lists() {
  static const std::vector<BuiltinFaultList> lists = {
      {"list1", fault_list_1},
      {"list2", fault_list_2},
      {"simple", standard_simple_static_faults},
      {"retention", retention_fault_list},
      {"decoder", [] { return decoder_fault_list(); }},
  };
  return lists;
}

const BuiltinFaultList* find_builtin_fault_list(const std::string& name) {
  for (const BuiltinFaultList& list : builtin_fault_lists()) {
    if (name == list.name) return &list;
  }
  return nullptr;
}

std::string builtin_fault_list_names() {
  std::string names;
  for (const BuiltinFaultList& list : builtin_fault_lists()) {
    names += (names.empty() ? "" : ", ") + std::string(list.name);
  }
  return names;
}

}  // namespace mtg
