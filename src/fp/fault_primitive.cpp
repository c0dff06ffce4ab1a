#include "fp/fault_primitive.hpp"

#include <ostream>

#include "common/error.hpp"

namespace mtg {

std::string to_string(SenseOp op) {
  switch (op) {
    case SenseOp::None: return "";
    case SenseOp::W0: return "w0";
    case SenseOp::W1: return "w1";
    case SenseOp::Rd: return "r";
    case SenseOp::Wt: return "t";
  }
  throw InternalError("to_string(SenseOp): unreachable");
}

std::string to_string(FpClass c) {
  switch (c) {
    case FpClass::SF: return "SF";
    case FpClass::TF: return "TF";
    case FpClass::WDF: return "WDF";
    case FpClass::RDF: return "RDF";
    case FpClass::DRDF: return "DRDF";
    case FpClass::IRF: return "IRF";
    case FpClass::CFst: return "CFst";
    case FpClass::CFds: return "CFds";
    case FpClass::CFtr: return "CFtr";
    case FpClass::CFwd: return "CFwd";
    case FpClass::CFrd: return "CFrd";
    case FpClass::CFdr: return "CFdr";
    case FpClass::CFir: return "CFir";
    case FpClass::DRF: return "DRF";
    case FpClass::CFrt: return "CFrt";
  }
  throw InternalError("to_string(FpClass): unreachable");
}

namespace {

/// Sensitizer rendering, e.g. "0w1", "1r1", "0".
std::string sensitizer_string(Bit state, SenseOp op) {
  std::string out(1, to_char(state));
  switch (op) {
    case SenseOp::None: break;
    case SenseOp::W0: out += "w0"; break;
    case SenseOp::W1: out += "w1"; break;
    case SenseOp::Rd:
      out += 'r';
      out += to_char(state);  // a read always reads the current stored value
      break;
    case SenseOp::Wt: out += 't'; break;
  }
  return out;
}

}  // namespace

FaultPrimitive::FaultPrimitive(int num_cells, Bit a_state, SenseOp a_op,
                               Bit v_state, SenseOp v_op, Bit fault_value,
                               Tri read_result)
    : num_cells_(static_cast<std::uint8_t>(num_cells)),
      a_state_(a_state),
      a_op_(a_op),
      v_state_(v_state),
      v_op_(v_op),
      fault_value_(fault_value),
      read_result_(read_result) {
  require(num_cells == 1 || num_cells == 2,
          "a static fault primitive involves 1 or 2 cells");
  require(!(a_op != SenseOp::None && v_op != SenseOp::None),
          "a static fault primitive has at most one sensitizing operation");
  if (num_cells == 1) {
    require(a_op == SenseOp::None,
            "a single-cell fault primitive has no aggressor operation");
  }
  // A wait pauses on the cell it is "applied" to during the march sweep; the
  // retention condition lives on the decaying (victim) cell, so aggressor
  // wait sensitizers are not part of the model.
  require(a_op != SenseOp::Wt,
          "the wait sensitizer t applies to the victim cell only");
  if (v_op == SenseOp::Rd) {
    require(is_concrete(read_result),
            "a read-sensitized fault primitive must specify the read result R");
  } else {
    require(read_result == Tri::X,
            "the read result R only applies to reads of the victim");
  }
  // The FP must deviate from the fault-free behaviour: either the victim's
  // final value differs, or a victim read returns the wrong value.
  const Bit good_final =
      (v_op_ == SenseOp::W0) ? Bit::Zero
      : (v_op_ == SenseOp::W1) ? Bit::One
                               : v_state_;
  const bool state_deviates = fault_value != good_final;
  const bool read_deviates =
      v_op == SenseOp::Rd && to_bit(read_result) != v_state;
  require(state_deviates || read_deviates,
          "fault primitive describes fault-free behaviour (no deviation)");
}

FaultPrimitive FaultPrimitive::single(Bit v_state, SenseOp op, Bit fault_value,
                                      Tri read_result) {
  return FaultPrimitive(1, Bit::Zero, SenseOp::None, v_state, op, fault_value,
                        read_result);
}

FaultPrimitive FaultPrimitive::coupled(Bit a_state, SenseOp a_op, Bit v_state,
                                       SenseOp v_op, Bit fault_value,
                                       Tri read_result) {
  return FaultPrimitive(2, a_state, a_op, v_state, v_op, fault_value,
                        read_result);
}

FaultPrimitive FaultPrimitive::sf(Bit state) {
  return single(state, SenseOp::None, flip(state));
}
FaultPrimitive FaultPrimitive::tf(Bit from) {
  return single(from, from == Bit::Zero ? SenseOp::W1 : SenseOp::W0, from);
}
FaultPrimitive FaultPrimitive::wdf(Bit state) {
  return single(state, state == Bit::Zero ? SenseOp::W0 : SenseOp::W1,
                flip(state));
}
FaultPrimitive FaultPrimitive::rdf(Bit state) {
  return single(state, SenseOp::Rd, flip(state), to_tri(flip(state)));
}
FaultPrimitive FaultPrimitive::drdf(Bit state) {
  return single(state, SenseOp::Rd, flip(state), to_tri(state));
}
FaultPrimitive FaultPrimitive::irf(Bit state) {
  return single(state, SenseOp::Rd, state, to_tri(flip(state)));
}
FaultPrimitive FaultPrimitive::cfst(Bit a, Bit v) {
  return coupled(a, SenseOp::None, v, SenseOp::None, flip(v));
}
FaultPrimitive FaultPrimitive::cfds(Bit a_state, SenseOp a_op, Bit v) {
  require(a_op != SenseOp::None, "CFds needs a sensitizing aggressor operation");
  return coupled(a_state, a_op, v, SenseOp::None, flip(v));
}
FaultPrimitive FaultPrimitive::cftr(Bit a, Bit from) {
  return coupled(a, SenseOp::None, from,
                 from == Bit::Zero ? SenseOp::W1 : SenseOp::W0, from);
}
FaultPrimitive FaultPrimitive::cfwd(Bit a, Bit v) {
  return coupled(a, SenseOp::None, v, v == Bit::Zero ? SenseOp::W0 : SenseOp::W1,
                 flip(v));
}
FaultPrimitive FaultPrimitive::cfrd(Bit a, Bit v) {
  return coupled(a, SenseOp::None, v, SenseOp::Rd, flip(v), to_tri(flip(v)));
}
FaultPrimitive FaultPrimitive::cfdr(Bit a, Bit v) {
  return coupled(a, SenseOp::None, v, SenseOp::Rd, flip(v), to_tri(v));
}
FaultPrimitive FaultPrimitive::cfir(Bit a, Bit v) {
  return coupled(a, SenseOp::None, v, SenseOp::Rd, v, to_tri(flip(v)));
}
FaultPrimitive FaultPrimitive::drf(Bit state) {
  return single(state, SenseOp::Wt, flip(state));
}
FaultPrimitive FaultPrimitive::cfrt(Bit a, Bit v) {
  return coupled(a, SenseOp::None, v, SenseOp::Wt, flip(v));
}

Bit FaultPrimitive::a_state() const {
  require(is_two_cell(), "a_state: single-cell fault primitives have no aggressor");
  return a_state_;
}

Bit FaultPrimitive::good_final_victim_value() const {
  if (v_op_ == SenseOp::W0) return Bit::Zero;
  if (v_op_ == SenseOp::W1) return Bit::One;
  return v_state_;
}

bool FaultPrimitive::is_immediately_detecting() const {
  return v_op_ == SenseOp::Rd && to_bit(read_result_) != v_state_;
}

FpClass FaultPrimitive::classify() const {
  if (num_cells_ == 1) {
    if (is_state_fault()) return FpClass::SF;
    if (v_op_ == SenseOp::Wt) return FpClass::DRF;
    if (v_op_ == SenseOp::Rd) {
      if (fault_value_ == v_state_) return FpClass::IRF;
      return to_bit(read_result_) == v_state_ ? FpClass::DRDF : FpClass::RDF;
    }
    // write-sensitized
    const Bit written = (v_op_ == SenseOp::W1) ? Bit::One : Bit::Zero;
    return written == v_state_ ? FpClass::WDF : FpClass::TF;
  }
  if (is_state_fault()) return FpClass::CFst;
  if (op_on_aggressor()) return FpClass::CFds;
  if (v_op_ == SenseOp::Wt) return FpClass::CFrt;
  if (v_op_ == SenseOp::Rd) {
    if (fault_value_ == v_state_) return FpClass::CFir;
    return to_bit(read_result_) == v_state_ ? FpClass::CFdr : FpClass::CFrd;
  }
  const Bit written = (v_op_ == SenseOp::W1) ? Bit::One : Bit::Zero;
  return written == v_state_ ? FpClass::CFwd : FpClass::CFtr;
}

std::string FaultPrimitive::name() const {
  const FpClass c = classify();
  std::string out = to_string(c);
  switch (c) {
    case FpClass::SF:
    case FpClass::WDF:
    case FpClass::RDF:
    case FpClass::DRDF:
    case FpClass::IRF:
    case FpClass::DRF:
      out += to_char(v_state_);
      break;
    case FpClass::TF:
      out += v_state_ == Bit::Zero ? "↑" : "↓";
      break;
    default:
      // coupling faults: spell out the sensitizer pair
      out += '<' + sensitizer_string(a_state_, a_op_) + ';' +
             sensitizer_string(v_state_, v_op_) + '>';
      break;
  }
  return out;
}

std::string FaultPrimitive::notation() const {
  std::string out(1, '<');
  if (is_two_cell()) out += sensitizer_string(a_state_, a_op_) + ';';
  out += sensitizer_string(v_state_, v_op_);
  out += {'/', to_char(fault_value_), '/', to_char(read_result_), '>'};
  return out;
}

std::ostream& operator<<(std::ostream& os, const FaultPrimitive& fp) {
  return os << fp.notation();
}

namespace {

/// Cursor over the FP notation with position-carrying failures.
struct NotationScanner {
  std::string_view text;
  TextPosition origin;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("fault primitive notation error at " +
                         position_at(text, pos, origin).to_string() + ": " +
                         message + " in \"" + std::string(text) + "\"",
                     message, position_at(text, pos, origin), pos);
  }

  char peek() const { return pos < text.size() ? text[pos] : '\0'; }

  void expect(char c, const char* what) {
    if (peek() != c) fail(std::string("expected '") + c + "' (" + what + ")");
    ++pos;
  }

  Bit read_bit(const char* what) {
    const char c = peek();
    if (c != '0' && c != '1') fail(std::string("expected '0' or '1' (") + what + ")");
    ++pos;
    return bit_from_char(c);
  }

  /// One sensitizer: state bit plus optional operation (w0, w1, r<state>, t).
  void read_sensitizer(Bit& state, SenseOp& op) {
    state = read_bit("sensitizing state");
    op = SenseOp::None;
    switch (peek()) {
      case 'w':
        ++pos;
        op = read_bit("written value") == Bit::One ? SenseOp::W1 : SenseOp::W0;
        break;
      case 'r': {
        ++pos;
        // A read always reads the current stored value; notation repeats it.
        if (read_bit("read value") != state) {
          --pos;
          fail("a read sensitizer reads the cell's current value; "
               "'r' must repeat the state bit");
        }
        op = SenseOp::Rd;
        break;
      }
      case 't':
        ++pos;
        op = SenseOp::Wt;
        break;
      default:
        break;
    }
  }
};

}  // namespace

FaultPrimitive FaultPrimitive::from_notation(std::string_view text,
                                             TextPosition origin) {
  NotationScanner scanner{text, origin};
  scanner.expect('<', "a fault primitive starts with '<'");
  Bit first_state = Bit::Zero, second_state = Bit::Zero;
  SenseOp first_op = SenseOp::None, second_op = SenseOp::None;
  scanner.read_sensitizer(first_state, first_op);
  const bool two_cell = scanner.peek() == ';';
  if (two_cell) {
    ++scanner.pos;
    scanner.read_sensitizer(second_state, second_op);
  }
  scanner.expect('/', "separator before the fault value F");
  const Bit fault_value = scanner.read_bit("fault value F");
  scanner.expect('/', "separator before the read result R");
  const char r = scanner.peek();
  if (r != '0' && r != '1' && r != '-') {
    scanner.fail("expected '0', '1' or '-' (read result R)");
  }
  ++scanner.pos;
  const Tri read_result = tri_from_char(r);
  scanner.expect('>', "a fault primitive ends with '>'");
  if (scanner.pos != text.size()) {
    scanner.fail("trailing characters after fault primitive");
  }
  // Construction validation (one sensitizing operation, R on victim reads
  // only, actual deviation, ...) reports at the start of the notation.
  try {
    return two_cell ? FaultPrimitive::coupled(first_state, first_op,
                                              second_state, second_op,
                                              fault_value, read_result)
                    : FaultPrimitive::single(first_state, first_op,
                                             fault_value, read_result);
  } catch (const Error& e) {
    scanner.pos = 0;
    scanner.fail(e.what());
  }
}

}  // namespace mtg
