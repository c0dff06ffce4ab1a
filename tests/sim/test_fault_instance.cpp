#include "sim/fault_instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "coverage_helpers.hpp"
#include "memory/pattern_graph.hpp"

namespace mtg {
namespace {

TEST(FaultInstance, SingleCellFaultInstantiatesAtEveryCell) {
  const SimpleFault fault = SimpleFault::single(FaultPrimitive::tf(Bit::Zero));
  const auto instances = instantiate(fault, 5, 0);
  EXPECT_EQ(instances.size(), 5u);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i].fps.size(), 1u);
    EXPECT_EQ(instances[i].fps[0].v_cell, i);
    EXPECT_EQ(instances[i].fps[0].a_cell, i);
  }
}

TEST(FaultInstance, CoupledFaultRespectsLayout) {
  const SimpleFault below =
      SimpleFault::coupled(FaultPrimitive::cfst(Bit::Zero, Bit::One), true);
  for (const FaultInstance& inst : instantiate(below, 4, 0)) {
    EXPECT_LT(inst.fps[0].a_cell, inst.fps[0].v_cell);
  }
  const SimpleFault above =
      SimpleFault::coupled(FaultPrimitive::cfst(Bit::Zero, Bit::One), false);
  const auto instances = instantiate(above, 4, 0);
  EXPECT_EQ(instances.size(), 6u);  // C(4,2)
  for (const FaultInstance& inst : instances) {
    EXPECT_GT(inst.fps[0].a_cell, inst.fps[0].v_cell);
  }
}

TEST(FaultInstance, LinkedFaultInstanceCount) {
  const LinkedFault lf = disturb_coupling_linked_fault();  // 2 cells, a<v
  EXPECT_EQ(instantiate(lf, 6, 3).size(), 15u);  // C(6,2)
  for (const FaultInstance& inst : instantiate(lf, 6, 3)) {
    EXPECT_EQ(inst.fault_index, 3u);
    ASSERT_EQ(inst.fps.size(), 2u);
    EXPECT_EQ(inst.fps[0].v_cell, inst.fps[1].v_cell);  // shared victim
    EXPECT_LT(inst.fps[0].a_cell, inst.fps[0].v_cell);  // a < v layout
  }
}

TEST(FaultInstance, ThreeCellLayoutOrdering) {
  const FaultPrimitive fp1 =
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::Zero);
  const FaultPrimitive fp2 =
      FaultPrimitive::cfds(Bit::Zero, SenseOp::W1, Bit::One);
  // Layout a2 < v < a1.
  const LinkedFault lf(fp1, fp2, LinkedLayout::three_cell(2, 0, 1));
  const auto instances = instantiate(lf, 5, 0);
  EXPECT_EQ(instances.size(), 10u);  // C(5,3)
  for (const FaultInstance& inst : instances) {
    const std::size_t a1 = inst.fps[0].a_cell;
    const std::size_t a2 = inst.fps[1].a_cell;
    const std::size_t v = inst.fps[0].v_cell;
    EXPECT_LT(a2, v);
    EXPECT_LT(v, a1);
  }
}

TEST(FaultInstance, MemoryTooSmall) {
  const LinkedFault lf = disturb_coupling_linked_fault();
  EXPECT_THROW(instantiate(lf, 1, 0), Error);
}

TEST(FaultInstance, ClassesSkipFaultsLargerThanTheMemory) {
  // instantiate() throws for a fault with more cells than the memory;
  // behaviour_classes() gives it no class, so a two-cell working memory
  // still tracks List #1's one- and two-cell faults.
  const FaultList list = fault_list_1();
  const std::size_t n = 2;
  const std::vector<BehaviourClass> classes = behaviour_classes(list, n);
  std::size_t c = 0;
  std::size_t index = 0;
  std::size_t skipped = 0;
  const auto check_fp_fault = [&](const auto& fault) {
    if (static_cast<std::size_t>(fault.num_cells()) > n) {
      EXPECT_THROW(instantiate(fault, n, index), Error);
      ++skipped;
    } else {
      ASSERT_LT(c, classes.size());
      EXPECT_EQ(classes[c].representative.fault_index, index);
      EXPECT_EQ(classes[c].weight, instantiate(fault, n, index).size());
      ++c;
    }
    ++index;
  };
  for (const SimpleFault& fault : list.simple) check_fp_fault(fault);
  for (const LinkedFault& fault : list.linked) check_fp_fault(fault);
  EXPECT_EQ(c, classes.size());
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(classes.size(), 0u);
}

TEST(FaultInstance, InstantiateAllIndexing) {
  FaultList list;
  list.name = "mixed";
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::Zero)));
  list.simple.push_back(SimpleFault::single(FaultPrimitive::tf(Bit::One)));
  list.linked.push_back(disturb_coupling_linked_fault());

  EXPECT_EQ(fault_count(list), 3u);
  EXPECT_EQ(fault_name(list, 0), "TF↑ [v]");
  EXPECT_EQ(fault_name(list, 2), "CFds<0w1;0>→CFds<1w0;1> [a<v]");
  EXPECT_THROW(fault_name(list, 3), Error);

  const auto instances = instantiate_all(list, 3);
  EXPECT_EQ(instances.size(), 3u + 3u + 3u);  // 3+3 single-cell, C(3,2)=3
  for (const FaultInstance& inst : instances) {
    EXPECT_LT(inst.fault_index, 3u);
    EXPECT_FALSE(inst.description.empty());
  }
}

TEST(FaultInstance, KeptLayoutsIsExactAndLowestComesFirstInEveryTier) {
  // One fault per layout width (1, 2 and 3 cells), every sampling tier:
  // cap 0 and cap >= C(n, k) enumerate, C(n, k) <= 4·cap samples evenly,
  // above that the seeded tier draws — each keeps exactly kept_layouts().
  const FaultList list = fault_list_1();
  std::vector<const LinkedFault*> by_width(4, nullptr);
  for (const LinkedFault& fault : list.linked) {
    const auto k = static_cast<std::size_t>(fault.num_cells());
    if (by_width[k] == nullptr) by_width[k] = &fault;
  }
  for (std::size_t k = 1; k <= 3; ++k) {
    ASSERT_NE(by_width[k], nullptr) << k;
    const LinkedFault& fault = *by_width[k];
    for (const std::size_t n : {3, 5, 9, 40}) {
      const auto all = instantiate(fault, n, 7);
      EXPECT_EQ(all.size(), kept_layouts(n, k, 0));
      for (const std::size_t cap : {0, 1, 2, 3, 7, 16, 100, 1000}) {
        const auto kept = instantiate(fault, n, 7, cap);
        EXPECT_EQ(kept.size(), kept_layouts(n, k, cap))
            << fault.name() << " n=" << n << " cap=" << cap;
        ASSERT_FALSE(kept.empty());
        EXPECT_EQ(kept.front().description, all.front().description)
            << fault.name() << " n=" << n << " cap=" << cap;
      }
    }
  }
  EXPECT_EQ(kept_layouts(2, 3, 0), 0u);
  EXPECT_EQ(kept_layouts(4096, 3, 0), 11444858880ull);  // C(4096, 3)
  EXPECT_EQ(kept_layouts(4096, 3, 256), 256u);
}

TEST(FaultInstance, DecoderSampleMatchesBruteForceEnumeration) {
  // decoder_sample() maps each sample ordinal to its address arithmetically;
  // this is the address loop it replaced.
  for (const DecoderFaultClass cls :
       {DecoderFaultClass::NoAccess, DecoderFaultClass::WrongCell}) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const DecoderFault fault{cls, bit, Bit::Zero};
      for (std::size_t n = 3; n <= 300; n += (n < 40 ? 1 : 37)) {
        std::vector<std::size_t> valid;
        for (std::size_t a = 0; a < n && (std::size_t{1} << bit) < n; ++a) {
          if (cls == DecoderFaultClass::NoAccess ||
              (a ^ (std::size_t{1} << bit)) < n) {
            valid.push_back(a);
          }
        }
        ASSERT_EQ(decoder_address_count(fault, n), valid.size())
            << fault.name() << " n=" << n;
        for (const std::size_t cap : {0, 1, 2, 5, 64}) {
          const std::size_t keep =
              cap == 0 ? valid.size() : std::min(cap, valid.size());
          std::vector<std::size_t> expected;
          expected.reserve(keep);
          for (std::size_t j = 0; j < keep; ++j) {
            expected.push_back(
                valid[keep == 1 ? 0 : j * (valid.size() - 1) / (keep - 1)]);
          }
          EXPECT_EQ(decoder_sample(fault, n, cap), expected)
              << fault.name() << " n=" << n << " cap=" << cap;
        }
      }
    }
  }
}

TEST(FaultInstance, DecoderClassesMatchTheSampleWalk) {
  // behaviour_classes() counts a whole decoder address set in closed form
  // and walks only a capped sample smaller than it; both must equal the
  // address-by-address walk (weights, representatives and class order) on
  // either side of the whole-set boundary, at small and huge n.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 3; n <= 300; ++n) sizes.push_back(n);
  for (const std::size_t n : {1000, 4096, 65536, 1 << 20}) sizes.push_back(n);
  const FaultList decoders = decoder_fault_list();
  for (const DecoderFault& fault : decoders.decoder) {
    FaultList one;
    one.decoder.push_back(fault);
    for (const std::size_t n : sizes) {
      const std::size_t count = decoder_address_count(fault, n);
      // decoder_sample() keeps every address at cap 0 and at any cap of at
      // least `count`, so one walk of the whole set serves those caps.
      const std::vector<BehaviourClass> whole =
          decoder_classes_by_walk(fault, n, 0, 0);
      for (const std::size_t cap :
           {std::size_t{0}, count - 1, count, count + 1, std::size_t{256}}) {
        const std::vector<BehaviourClass> classes =
            behaviour_classes(one, n, cap);
        const std::vector<BehaviourClass> walked =
            cap == 0 || cap >= count ? whole
                                     : decoder_classes_by_walk(fault, n, cap, 0);
        ASSERT_EQ(classes.size(), walked.size())
            << fault.name() << " n=" << n << " cap=" << cap;
        for (std::size_t c = 0; c < classes.size(); ++c) {
          EXPECT_EQ(classes[c].weight, walked[c].weight)
              << fault.name() << " n=" << n << " cap=" << cap << " class " << c;
          EXPECT_EQ(classes[c].representative.description,
                    walked[c].representative.description)
              << fault.name() << " n=" << n << " cap=" << cap << " class " << c;
        }
      }
    }
  }
}


TEST(FaultInstance, ClassRepresentativesAreTheFirstInstances) {
  // behaviour_classes() binds an FP fault's lowest layout directly; it must
  // be the instance instantiate() keeps first under any cap.  A decoder
  // class is represented by the first sampled address with its value of bit
  // `bit`.  Checked field by field for every built-in list.
  const auto expect_same = [](const FaultInstance& got,
                              const FaultInstance& want,
                              const std::string& where) {
    EXPECT_EQ(got.fault_index, want.fault_index) << where;
    EXPECT_EQ(got.description, want.description) << where;
    ASSERT_EQ(got.fps.size(), want.fps.size()) << where;
    for (std::size_t i = 0; i < got.fps.size(); ++i) {
      EXPECT_TRUE(got.fps[i].fp == want.fps[i].fp) << where;
      EXPECT_EQ(got.fps[i].a_cell, want.fps[i].a_cell) << where;
      EXPECT_EQ(got.fps[i].v_cell, want.fps[i].v_cell) << where;
    }
    ASSERT_EQ(got.decoders.size(), want.decoders.size()) << where;
    for (std::size_t i = 0; i < got.decoders.size(); ++i) {
      EXPECT_TRUE(got.decoders[i].fault == want.decoders[i].fault) << where;
      EXPECT_EQ(got.decoders[i].a_cell, want.decoders[i].a_cell) << where;
      EXPECT_EQ(got.decoders[i].v_cell, want.decoders[i].v_cell) << where;
    }
  };
  for (const BuiltinFaultList& builtin : builtin_fault_lists()) {
    const FaultList list = builtin.make();
    for (const std::size_t n : {3, 4, 6, 64, 65536}) {
      for (const std::size_t cap : {0, 1, 256}) {
        const std::string at = std::string(builtin.name) +
                               " n=" + std::to_string(n) +
                               " cap=" + std::to_string(cap);
        const std::vector<BehaviourClass> classes =
            behaviour_classes(list, n, cap);
        std::size_t c = 0;
        std::size_t index = 0;
        const auto check_fp_fault = [&](const auto& fault) {
          ASSERT_LT(c, classes.size()) << at;
          expect_same(classes[c++].representative,
                      instantiate(fault, n, index, 1).front(),
                      at + " fault " + std::to_string(index));
          ++index;
        };
        for (const SimpleFault& fault : list.simple) check_fp_fault(fault);
        for (const LinkedFault& fault : list.linked) check_fp_fault(fault);
        for (const DecoderFault& fault : list.decoder) {
          std::array<bool, 2> seen = {false, false};
          for (const std::size_t a : decoder_sample(fault, n, cap)) {
            const std::size_t bit = (a >> fault.bit) & 1u;
            if (seen[bit]) continue;
            seen[bit] = true;
            ASSERT_LT(c, classes.size()) << at;
            expect_same(classes[c++].representative,
                        bind_decoder(fault, a, index),
                        at + " fault " + std::to_string(index));
            if (seen[0] && seen[1]) break;
          }
          ++index;
        }
        EXPECT_EQ(c, classes.size()) << at;
      }
    }
  }
}

}  // namespace
}  // namespace mtg
