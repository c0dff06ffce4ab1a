#include "march/analysis.hpp"

#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace mtg {

std::string MarchProfile::to_string() const {
  std::ostringstream out;
  out << complexity << "n, " << elements << " elements (" << reads << "r/"
      << writes << "w/" << waits << "t per cell)";
  const auto flag = [&](const char* name, const bool value[2]) {
    out << "\n  " << name << ": ";
    out << (value[0] ? "0" : "-") << (value[1] ? "1" : "-");
  };
  flag("reads value", reads_value);
  flag("transition write observed (TF)", transition_write_observed);
  flag("non-transition write observed (WDF)", nontransition_write_observed);
  flag("double read (DRDF)", double_read);
  flag("⇑ sensitizing read (a<v CF observation)", up_sensitizing_read);
  flag("⇓ sensitizing read (v<a CF observation)", down_sensitizing_read);
  flag("observed retention wait (DRF)", retention_observed);
  flag("⇑ read then complement write (AF)", up_read_complement_write);
  flag("⇓ read then complement write (AF)", down_read_complement_write);
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const MarchProfile& profile) {
  return os << profile.to_string();
}

MarchProfile analyze(const MarchTest& test) {
  require(test.consistency_violation().empty(),
          "analyze: inconsistent march test: " + test.consistency_violation());

  MarchProfile profile;
  profile.elements = test.size();
  profile.complexity = test.complexity();

  // Walk the per-cell operation stream (all elements concatenated; every
  // cell sees the same stream, only the interleaving across cells differs).
  std::optional<Bit> value;  // cell value along the stream
  // Each tracker below holds at most one value d, as tracker[d] == true.
  bool pending_tf[2] = {false, false};   // last write was a transition to d
  bool pending_wdf[2] = {false, false};  // last write was non-transition on d
  bool last_read[2] = {false, false};    // the immediately preceding read saw d
  bool pending_drf[2] = {false, false};  // cell sat through a wait holding d
  const auto hold = [](bool (&tracker)[2], int d) {
    tracker[d] = true;
    tracker[1 - d] = false;
  };
  const auto clear = [](bool (&tracker)[2]) { tracker[0] = tracker[1] = false; };

  for (const MarchElement& element : test.elements()) {
    bool wrote_in_element = false;
    bool read_in_element[2] = {false, false};  // value d read so far
    const auto note_complement_write = [&](Bit written) {
      // Reading d and later writing d̄ within one element — the classical
      // address-decoder detection structure, credited per sweep direction.
      const int d = to_int(flip(written));
      if (!read_in_element[d]) return;
      if (element.order() != AddressOrder::Down) {
        profile.up_read_complement_write[d] = true;
      }
      if (element.order() != AddressOrder::Up) {
        profile.down_read_complement_write[d] = true;
      }
    };
    for (const Op op : element.ops()) {
      if (is_wait(op)) {
        ++profile.waits;
        // The cell holds `value` through the pause; a later read of that
        // value (before a refreshing write) observes DRF decay.
        if (value.has_value()) hold(pending_drf, to_int(*value));
        continue;
      }
      if (is_write(op)) {
        ++profile.writes;
        const Bit d = written_value(op);
        note_complement_write(d);
        if (value.has_value()) {
          if (*value == d) {
            hold(pending_wdf, to_int(d));
            clear(pending_tf);
          } else {
            hold(pending_tf, to_int(d));
            clear(pending_wdf);
          }
        }
        value = d;
        clear(last_read);
        clear(pending_drf);  // a write refreshes the retention state
        wrote_in_element = true;
        continue;
      }
      // Read.
      ++profile.reads;
      const std::optional<Bit> expected =
          expected_value(op).has_value() ? expected_value(op) : value;
      if (expected.has_value()) {
        const int d = to_int(*expected);
        profile.reads_value[d] = true;
        // Only reads *before* any write of the element observe the state
        // the previous element left at other addresses — a read after an
        // intra-element write senses that write back and cannot
        // distinguish address pairs.
        if (!wrote_in_element) read_in_element[d] = true;
        if (pending_tf[d]) {
          // Reading back a transition write exposes TF toward that value.
          profile.transition_write_observed[d] = true;
        }
        if (pending_wdf[d]) {
          profile.nontransition_write_observed[d] = true;
        }
        if (last_read[d]) {
          profile.double_read[d] = true;
        }
        if (pending_drf[d]) {
          profile.retention_observed[d] = true;
        }
        if (!wrote_in_element) {
          // A read before any write of the element observes the victim in
          // the state the previous element left: this is what detects
          // coupling faults sensitized from the other side of the address
          // order.
          if (element.order() != AddressOrder::Down) {
            profile.up_sensitizing_read[d] = true;
          }
          if (element.order() != AddressOrder::Up) {
            profile.down_sensitizing_read[d] = true;
          }
        }
        hold(last_read, d);
      }
      clear(pending_tf);
      // A WDF stays exposed across consecutive reads (the state is faulty
      // until rewritten), but one observation suffices for the profile:
      clear(pending_wdf);
    }
  }
  return profile;
}

std::vector<std::string> structural_gaps(const MarchTest& test) {
  const MarchProfile profile = analyze(test);
  std::vector<std::string> gaps;
  for (int d = 0; d < 2; ++d) {
    const char polarity = d == 0 ? '0' : '1';
    if (!profile.reads_value[d]) {
      gaps.push_back(std::string("never reads a ") + polarity +
                     ": SF/state faults of that polarity escape");
    }
    if (!profile.transition_write_observed[d]) {
      gaps.push_back(std::string("no observed transition write to ") +
                     polarity + ": TF" + (d == 1 ? "↑" : "↓") + " escapes");
    }
    if (!profile.nontransition_write_observed[d]) {
      gaps.push_back(std::string("no observed non-transition w") + polarity +
                     ": WDF" + polarity + " escapes");
    }
    if (!profile.double_read[d]) {
      gaps.push_back(std::string("no back-to-back reads of ") + polarity +
                     ": DRDF" + polarity + " escapes");
    }
    if (!profile.up_sensitizing_read[d]) {
      gaps.push_back(std::string("no ⇑ element starting with r") + polarity +
                     ": CFs with a<v sensitized at value " + polarity +
                     " escape");
    }
    if (!profile.down_sensitizing_read[d]) {
      gaps.push_back(std::string("no ⇓ element starting with r") + polarity +
                     ": CFs with v<a sensitized at value " + polarity +
                     " escape");
    }
  }
  return gaps;
}

std::vector<std::string> retention_gaps(const MarchTest& test) {
  const MarchProfile profile = analyze(test);
  std::vector<std::string> gaps;
  for (int d = 0; d < 2; ++d) {
    const char polarity = d == 0 ? '0' : '1';
    if (!profile.retention_observed[d]) {
      gaps.push_back(std::string("no observed wait while holding ") +
                     polarity + ": DRF" + polarity + " escapes");
    }
  }
  return gaps;
}

std::vector<std::string> decoder_gaps(const MarchTest& test) {
  const MarchProfile profile = analyze(test);
  std::vector<std::string> gaps;
  for (int d = 0; d < 2; ++d) {
    const char polarity = d == 0 ? '0' : '1';
    const char complement = d == 0 ? '1' : '0';
    if (!profile.up_read_complement_write[d]) {
      gaps.push_back(std::string("no ⇑ element reading ") + polarity +
                     " then writing " + complement +
                     ": decoder faults on address pairs swept low-to-high "
                     "can escape");
    }
    if (!profile.down_read_complement_write[d]) {
      gaps.push_back(std::string("no ⇓ element reading ") + polarity +
                     " then writing " + complement +
                     ": decoder faults on address pairs swept high-to-low "
                     "can escape");
    }
  }
  return gaps;
}

}  // namespace mtg
