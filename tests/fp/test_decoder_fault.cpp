// Address-decoder fault models (fp/decoder_fault.hpp): the fault structures,
// decoder_fault_list() and their deterministic instantiation.
#include "fp/decoder_fault.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fp/fault_list.hpp"
#include "sim/fault_instance.hpp"

namespace mtg {
namespace {

TEST(DecoderFault, NamesAreUniqueAndClassTagged) {
  const FaultList list = decoder_fault_list();
  ASSERT_EQ(list.decoder.size(), 60u);  // 5 faults per line × 12 lines
  EXPECT_TRUE(list.simple.empty());
  EXPECT_TRUE(list.linked.empty());
  EXPECT_EQ(list.size(), 60u);
  std::set<std::string> names;
  for (const DecoderFault& fault : list.decoder) {
    names.insert(fault.name());
  }
  EXPECT_EQ(names.size(), list.decoder.size());
  EXPECT_EQ(list.decoder[0].name(), "AFna@b0");
  EXPECT_EQ(list.decoder[1].name(), "AFwc@b0");
  EXPECT_EQ(list.decoder[2].name(), "AFmc-and@b0");
  EXPECT_EQ(list.decoder[3].name(), "AFmc-or@b0");
  EXPECT_EQ(list.decoder[4].name(), "AFma@b0");
}

TEST(DecoderFault, ListSizeTracksTheAddressLineCount) {
  EXPECT_EQ(decoder_fault_list(1).decoder.size(), 5u);
  EXPECT_EQ(decoder_fault_list(3).decoder.size(), 15u);
  EXPECT_THROW(decoder_fault_list(0), Error);
}

TEST(BoundDecoderValidation, PartnerMustMirrorTheBrokenBit) {
  const DecoderFault wc{DecoderFaultClass::WrongCell, 1, Bit::Zero};
  EXPECT_NO_THROW(BoundDecoder(wc, 0, 2));
  EXPECT_NO_THROW(BoundDecoder(wc, 5, 7));
  EXPECT_THROW(BoundDecoder(wc, 0, 1), Error);  // differs in bit 0, not 1
  EXPECT_THROW(BoundDecoder(wc, 0, 0), Error);  // no partner at all

  const DecoderFault na{DecoderFaultClass::NoAccess, 1, Bit::Zero};
  EXPECT_NO_THROW(BoundDecoder(na, 3, 3));
  EXPECT_THROW(BoundDecoder(na, 3, 1), Error);  // NoAccess involves one cell
}

TEST(BoundDecoderValidation, NoAccessReadBackIsTheBrokenAddressBit) {
  const DecoderFault na{DecoderFaultClass::NoAccess, 2, Bit::Zero};
  EXPECT_EQ(BoundDecoder(na, 4, 4).no_access_read_back(), Bit::One);
  EXPECT_EQ(BoundDecoder(na, 3, 3).no_access_read_back(), Bit::Zero);
}

TEST(DecoderInstantiation, EnumeratesEveryValidCorruptedAddress) {
  const DecoderFault wc{DecoderFaultClass::WrongCell, 1, Bit::Zero};
  // n = 8 (a power of two): every address has its partner in range.
  const auto instances = instantiate(wc, 8, 0);
  ASSERT_EQ(instances.size(), 8u);
  for (const FaultInstance& inst : instances) {
    ASSERT_EQ(inst.decoders.size(), 1u);
    EXPECT_TRUE(inst.fps.empty());
    EXPECT_EQ(inst.decoders[0].v_cell, inst.decoders[0].a_cell ^ 2u);
  }
}

TEST(DecoderInstantiation, NonPowerOfTwoDropsOutOfRangePartners) {
  const DecoderFault wc{DecoderFaultClass::WrongCell, 2, Bit::Zero};
  // n = 6: a ∈ {0,1,4,5} pair across bit 2; a ∈ {2,3} would need 6/7.
  const auto instances = instantiate(wc, 6, 0);
  std::set<std::size_t> corrupted;
  for (const FaultInstance& inst : instances) {
    corrupted.insert(inst.decoders[0].a_cell);
    EXPECT_LT(inst.decoders[0].v_cell, 6u);
  }
  EXPECT_EQ(corrupted, (std::set<std::size_t>{0, 1, 4, 5}));
}

TEST(DecoderInstantiation, MissingAddressLineYieldsNoInstances) {
  const DecoderFault wc{DecoderFaultClass::WrongCell, 6, Bit::Zero};
  EXPECT_TRUE(instantiate(wc, 64, 0).empty());   // 2^6 == n: line absent
  EXPECT_EQ(instantiate(wc, 65, 0).size(), 2u);  // pairs (0,64) and (64,0)
}

TEST(DecoderInstantiation, CapIsDeterministicAndKeepsTheBoundaries) {
  const DecoderFault na{DecoderFaultClass::NoAccess, 3, Bit::Zero};
  const auto a = instantiate(na, 4096, 7, /*max_instances=*/16);
  const auto b = instantiate(na, 4096, 7, /*max_instances=*/16);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].description, b[i].description);
  }
  EXPECT_EQ(a.front().decoders[0].a_cell, 0u);
  EXPECT_EQ(a.back().decoders[0].a_cell, 4095u);
}

TEST(DecoderInstantiation, InstantiateAllAppendsDecoderFaultsLast) {
  FaultList list = standard_simple_static_faults();
  const std::size_t fp_faults = fault_count(list);
  list.decoder = decoder_fault_list(2).decoder;
  EXPECT_EQ(fault_count(list), fp_faults + 10);
  EXPECT_EQ(fault_name(list, fp_faults), "AFna@b0");
  EXPECT_EQ(fault_name(list, fp_faults + 9), "AFma@b1");
  const auto instances = instantiate_all(list, 4);
  bool saw_decoder = false;
  for (const FaultInstance& inst : instances) {
    if (!inst.decoders.empty()) {
      saw_decoder = true;
      EXPECT_GE(inst.fault_index, fp_faults);
    } else {
      EXPECT_FALSE(saw_decoder) << "decoder instances must come last";
    }
  }
  EXPECT_TRUE(saw_decoder);
}

}  // namespace
}  // namespace mtg
