// Catalog of published march tests.
//
// Each factory returns the test exactly as published (complexity in the
// function name comment).  Provenance:
//
//  * MATS+, March X, March Y, March C-, March A, March B, March U:
//    classic tests, see van de Goor, "Testing Semiconductor Memories".
//  * March LR [8], March LA [7]: van de Goor et al., tests for (a subset of)
//    linked faults.
//  * March SS: Hamdioui et al., test for all static simple (unlinked) faults.
//  * March SL [9][10]: Hamdioui et al., hand-made 41n test for all static
//    linked faults — the paper's strongest published baseline.
//  * March LF1 [16]: 11n test for single-cell linked faults.  The exact
//    sequence is not printed in the reproduced paper; this is a
//    reconstruction validated by the fault simulator against Fault List #2
//    (tests/integration/test_calibration.cpp).
//  * March ABL (37n), March RABL (35n), March ABL1 (9n): the tests generated
//    by the paper, transcribed verbatim from Table 1.
#pragma once

#include <vector>

#include "march/march_test.hpp"

namespace mtg {

MarchTest mats_plus();      ///< 5n  {⇕(w0); ⇑(r0,w1); ⇓(r1,w0)}
MarchTest march_x();        ///< 6n
MarchTest march_y();        ///< 8n
MarchTest march_c_minus();  ///< 10n
MarchTest march_a();        ///< 15n
MarchTest march_b();        ///< 17n
MarchTest march_u();        ///< 13n
MarchTest march_g();        ///< 23n  — classic test incl. retention delays (t)
MarchTest pmovi();          ///< 13n  — pause-free MOVI variant
MarchTest march_lr();       ///< 14n  — linked faults (restricted set)
MarchTest march_la();       ///< 22n  — linked faults (restricted set)
MarchTest march_ss();       ///< 22n  — all static simple (unlinked) faults
MarchTest march_sl();       ///< 41n  — all static linked faults (baseline)
MarchTest march_lf1();      ///< 11n  — single-cell linked faults (reconstruction)
MarchTest march_abl();      ///< 37n  — paper Table 1, Fault List #1
MarchTest march_rabl();     ///< 35n  — paper Table 1, Fault List #1
MarchTest march_abl1();     ///< 9n   — paper Table 1, Fault List #2

/// Complexity (per-cell operation count) of the 43n automatically generated
/// march test of Al-Harbi & Gupta [11].  Only the length is used by the
/// paper's Table 1 comparison; the sequence itself was not published there.
inline constexpr std::size_t kAlHarbiGupta43nComplexity = 43;

/// Every catalog test above, for sweeps/parameterized tests.
std::vector<MarchTest> all_catalog_tests();

/// The subset of catalog tests that target linked faults.
std::vector<MarchTest> linked_fault_catalog_tests();

/// The subset of catalog tests containing wait (`t`) operations — the only
/// ones able to sensitize data-retention faults.
std::vector<MarchTest> retention_catalog_tests();

}  // namespace mtg
