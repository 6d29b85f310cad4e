#include "nl/verilog.hpp"

#include <cctype>
#include <map>
#include <sstream>
#include <vector>

namespace edacloud::nl {

namespace {

const char* kPinNames[3] = {"A", "B", "C"};

std::string net_name(const Netlist& netlist, NodeId id) {
  const auto& inputs = netlist.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == id) {
      std::string name = "pi";
      name += std::to_string(i);
      return name;
    }
  }
  std::string name = "n";
  name += std::to_string(id);
  return name;
}

}  // namespace

std::string write_verilog(const Netlist& netlist) {
  std::ostringstream out;
  const auto& inputs = netlist.inputs();
  const auto& outputs = netlist.outputs();

  out << "// generated by edacloud (library: " << netlist.library().name()
      << ")\n";
  out << "module " << (netlist.name().empty() ? "top" : netlist.name())
      << " (";
  bool first = true;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out << (first ? "" : ", ") << "pi" << i;
    first = false;
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out << (first ? "" : ", ") << "po" << i;
    first = false;
  }
  out << ");\n";

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out << "  input pi" << i << ";\n";
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out << "  output po" << i << ";\n";
  }
  for (NodeId id = 0; id < netlist.node_count(); ++id) {
    if (netlist.is_cell(id)) out << "  wire n" << id << ";\n";
  }

  for (NodeId id = 0; id < netlist.node_count(); ++id) {
    const NetlistNode& node = netlist.node(id);
    if (node.kind != NodeKind::kCell) continue;
    const Cell& cell = netlist.library().cell(node.cell);
    out << "  " << cell.name << " g" << id << " (";
    for (std::size_t p = 0; p < node.fanins.size(); ++p) {
      out << "." << kPinNames[p] << "(" << net_name(netlist, node.fanins[p])
          << "), ";
    }
    out << ".Y(n" << id << "));\n";
  }

  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const NodeId driver = netlist.node(outputs[i]).fanins[0];
    out << "  assign po" << i << " = " << net_name(netlist, driver) << ";\n";
  }
  out << "endmodule\n";
  return out.str();
}

namespace {

struct Token {
  std::string text;
  int line = 0;
};

std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> tokens;
  int line = 1;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == '$') {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_' || text[j] == '$')) {
        ++j;
      }
      tokens.push_back({text.substr(i, j - i), line});
      i = j;
      continue;
    }
    tokens.push_back({std::string(1, c), line});
    ++i;
  }
  return tokens;
}

struct Instance {
  std::string cell_name;
  std::string instance_name;
  std::map<std::string, std::string> pins;  // pin -> net
  int line = 0;
};

struct Parser {
  const std::vector<Token>& tokens;
  std::size_t cursor = 0;
  std::string error;

  [[nodiscard]] bool done() const { return cursor >= tokens.size(); }
  [[nodiscard]] const Token& peek() const { return tokens[cursor]; }

  bool fail(const std::string& message) {
    const int line = done() ? -1 : peek().line;
    error = "line " + std::to_string(line) + ": " + message;
    return false;
  }

  bool expect(const std::string& text) {
    if (done() || peek().text != text) {
      return fail("expected '" + text + "'");
    }
    ++cursor;
    return true;
  }

  bool identifier(std::string& out) {
    if (done()) return fail("expected identifier");
    const char c = peek().text[0];
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
      return fail("expected identifier, got '" + peek().text + "'");
    }
    out = peek().text;
    ++cursor;
    return true;
  }
};

}  // namespace

VerilogParseResult parse_verilog(const std::string& text,
                                 const CellLibrary& library) {
  VerilogParseResult result;
  const auto tokens = tokenize(text);
  Parser parser{tokens, 0, {}};

  auto fail = [&](const std::string& message) {
    result.error = message.empty() ? parser.error : message;
    return result;
  };

  std::string module_name;
  if (!parser.expect("module") || !parser.identifier(module_name) ||
      !parser.expect("(")) {
    return fail("");
  }
  // Port list (names only; direction comes from declarations).
  std::vector<std::string> ports;
  if (!parser.done() && parser.peek().text != ")") {
    while (true) {
      std::string port;
      if (!parser.identifier(port)) return fail("");
      ports.push_back(port);
      if (parser.done()) return fail("");
      if (parser.peek().text == ")") break;
      if (!parser.expect(",")) return fail("");
    }
  }
  if (!parser.expect(")") || !parser.expect(";")) return fail("");

  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<Instance> instances;
  std::map<std::string, std::string> output_aliases;  // po -> net

  while (!parser.done() && parser.peek().text != "endmodule") {
    const Token head = parser.peek();
    if (head.text == "input" || head.text == "output" ||
        head.text == "wire") {
      ++parser.cursor;
      std::string name;
      if (!parser.identifier(name) || !parser.expect(";")) return fail("");
      if (head.text == "input") input_names.push_back(name);
      if (head.text == "output") output_names.push_back(name);
      continue;
    }
    if (head.text == "assign") {
      ++parser.cursor;
      std::string lhs, rhs;
      if (!parser.identifier(lhs) || !parser.expect("=") ||
          !parser.identifier(rhs) || !parser.expect(";")) {
        return fail("");
      }
      output_aliases[lhs] = rhs;
      continue;
    }
    // Cell instance.
    Instance instance;
    instance.line = head.line;
    if (!parser.identifier(instance.cell_name) ||
        !parser.identifier(instance.instance_name) || !parser.expect("(")) {
      return fail("");
    }
    while (true) {
      if (!parser.expect(".")) return fail("");
      std::string pin, net;
      if (!parser.identifier(pin) || !parser.expect("(") ||
          !parser.identifier(net) || !parser.expect(")")) {
        return fail("");
      }
      instance.pins[pin] = net;
      if (parser.done()) return fail("");
      if (parser.peek().text == ")") break;
      if (!parser.expect(",")) return fail("");
    }
    if (!parser.expect(")") || !parser.expect(";")) return fail("");
    instances.push_back(std::move(instance));
  }
  if (!parser.expect("endmodule")) return fail("");

  // ---- build the netlist -----------------------------------------------------
  Netlist netlist(module_name, &library);
  std::map<std::string, NodeId> driver_of;
  for (const std::string& name : input_names) {
    driver_of[name] = netlist.add_input();
  }

  // Instances may reference nets produced by later instances: iterate until
  // a full pass makes no progress (then the remainder is cyclic/undriven).
  std::vector<bool> built(instances.size(), false);
  std::size_t remaining = instances.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (built[i]) continue;
      const Instance& instance = instances[i];
      const auto cell = library.find(instance.cell_name);
      if (!cell.has_value()) {
        result.error = "line " + std::to_string(instance.line) +
                       ": unknown cell '" + instance.cell_name + "'";
        return result;
      }
      const int arity = library.cell(*cell).input_count;
      std::vector<NodeId> fanins;
      bool ready = true;
      for (int p = 0; p < arity && ready; ++p) {
        const auto pin = instance.pins.find(kPinNames[p]);
        if (pin == instance.pins.end()) {
          result.error = "line " + std::to_string(instance.line) +
                         ": missing pin ." + kPinNames[p];
          return result;
        }
        const auto driver = driver_of.find(pin->second);
        if (driver == driver_of.end()) {
          ready = false;
        } else {
          fanins.push_back(driver->second);
        }
      }
      if (!ready) continue;
      const auto y = instance.pins.find("Y");
      if (y == instance.pins.end()) {
        result.error = "line " + std::to_string(instance.line) +
                       ": missing output pin .Y";
        return result;
      }
      driver_of[y->second] = netlist.add_cell(*cell, std::move(fanins));
      built[i] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    result.error = "undriven nets or combinational cycle among " +
                   std::to_string(remaining) + " instance(s)";
    return result;
  }

  for (const std::string& name : output_names) {
    std::string source = name;
    const auto alias = output_aliases.find(name);
    if (alias != output_aliases.end()) source = alias->second;
    const auto driver = driver_of.find(source);
    if (driver == driver_of.end()) {
      result.error = "output '" + name + "' is undriven";
      return result;
    }
    netlist.add_output(driver->second);
  }

  result.ok = true;
  result.netlist = std::move(netlist);
  return result;
}

}  // namespace edacloud::nl
