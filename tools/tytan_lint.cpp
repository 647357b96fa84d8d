// tytan-lint — static binary verifier for TBF task images.
//
//   tytan-lint task.tbf [options]
//   tytan-lint task.s   [options]     (assembles first, then lints)
//
// Runs the same analysis the loader's lint gate runs (CFG recovery,
// relocation lints, value-set dataflow, stack-depth analysis, MMIO/privilege
// lints) and prints the findings with disassembly context.  Exit status: 0
// when no error findings (warnings allowed unless --strict), 1 on error
// findings or unreadable input, 2 on usage errors.
//
// Options:
//   --porcelain        one tab-separated line per finding:
//                      RULE<TAB>severity<TAB>0xOFFSET<TAB>message
//   --json             machine-readable report on stdout (findings, rule
//                      counts, pass timings; same flat-object style as
//                      `tytan-trace stats --json`)
//   --strict           treat warnings as errors for the exit status
//   --suppress RULE    drop a rule (repeatable, e.g. --suppress DF002)
//   --max-targets N    indirect sites above N candidates stay unresolved
//                      (default 64)
//   --no-cfg --no-reloc --no-stack --no-mmio --no-dataflow
//                      disable individual passes
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/json.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "tbf/tbf.h"
#include "tool_util.h"

namespace {

using namespace tytan;

constexpr const char* kTool = "tytan-lint";

constexpr const char kUsageText[] =
    "usage: tytan-lint <task.tbf|task.s> [--porcelain] [--json]\n"
    "                  [--strict] [--suppress RULE]... [--max-targets N]\n"
    "                  [--no-cfg] [--no-reloc] [--no-stack] [--no-mmio]\n"
    "                  [--no-dataflow]\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return 2;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Disassembly context around a finding: two words either side, the finding's
/// word marked with '>'.
void print_context(const isa::ObjectFile& object, std::uint32_t offset) {
  const auto image_size = static_cast<std::uint32_t>(object.image.size());
  const std::uint32_t word_offset = offset & ~3u;
  if (word_offset + 4 > image_size) {
    return;  // finding anchors outside the image (range lints)
  }
  const std::uint32_t first = word_offset >= 8 ? word_offset - 8 : 0;
  const std::uint32_t last = std::min(word_offset + 8, image_size - 4);
  for (std::uint32_t at = first; at <= last; at += 4) {
    const std::uint32_t word = load_le32(object.image.data() + at);
    const char* reloc_note = "";
    for (const isa::Relocation& reloc : object.relocs) {
      if (reloc.offset == at) {
        reloc_note = reloc.kind == isa::RelocKind::kAbs32  ? "   ; reloc ABS32"
                     : reloc.kind == isa::RelocKind::kLo16 ? "   ; reloc LO16"
                                                           : "   ; reloc HI16";
        break;
      }
    }
    std::printf("  %c 0x%04x:  %08x  %s%s\n", at == word_offset ? '>' : ' ', at,
                word, isa::disassemble_word(word, at).c_str(), reloc_note);
  }
}

/// Machine-readable report, same flat-object style as `tytan-trace stats
/// --json`: scalar summary, per-pass timings, rule counts, then findings.
void print_json(const std::string& input, const isa::ObjectFile& object,
                const analysis::Analysis& full) {
  const analysis::Report& report = full.report;
  std::printf("{\"input\": \"%s\", \"image_bytes\": %zu",
              json_escape(input).c_str(), object.image.size());
  std::printf(", \"errors\": %zu, \"warnings\": %zu, \"infos\": %zu",
              report.errors(), report.warnings(),
              report.count(analysis::Severity::kInfo));
  std::printf(", \"indirect_sites\": %zu, \"resolved_sites\": %zu",
              full.dataflow.indirect_sites, full.dataflow.resolved.size());
  std::printf(", \"certified_accesses\": %zu, \"dataflow_iterations\": %d"
              ", \"converged\": %s",
              full.dataflow.certified_accesses, full.dataflow_iterations,
              full.dataflow.converged ? "true" : "false");
  std::printf(", \"pass_us\": {\"structural\": %llu, \"relocation\": %llu, "
              "\"dataflow\": %llu, \"stack\": %llu, \"mmio\": %llu}",
              static_cast<unsigned long long>(full.timings.structural_us),
              static_cast<unsigned long long>(full.timings.relocation_us),
              static_cast<unsigned long long>(full.timings.dataflow_us),
              static_cast<unsigned long long>(full.timings.stack_us),
              static_cast<unsigned long long>(full.timings.mmio_us));
  std::map<std::string, std::size_t> rules;
  for (const analysis::Finding& finding : report.findings) {
    ++rules[std::string(analysis::rule_id(finding.rule))];
  }
  std::printf(", \"rules\": {");
  bool first = true;
  for (const auto& [rule, count] : rules) {
    std::printf("%s\"%s\": %zu", first ? "" : ", ", rule.c_str(), count);
    first = false;
  }
  std::printf("}, \"findings\": [");
  first = true;
  for (const analysis::Finding& finding : report.findings) {
    std::printf("%s{\"rule\": \"%s\", \"severity\": \"%s\", \"offset\": %u, "
                "\"message\": \"%s\"}",
                first ? "" : ", ",
                std::string(analysis::rule_id(finding.rule)).c_str(),
                std::string(analysis::severity_name(finding.severity)).c_str(),
                finding.offset, json_escape(finding.message).c_str());
    first = false;
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::handle_version_help(kTool, argc, argv, kUsageText);
  std::string input;
  bool porcelain = false;
  bool json = false;
  bool strict = false;
  analysis::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--porcelain") {
      porcelain = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--no-cfg") {
      config.structural = false;
    } else if (arg == "--no-reloc") {
      config.relocations = false;
    } else if (arg == "--no-stack") {
      config.stack = false;
    } else if (arg == "--no-mmio") {
      config.mmio = false;
    } else if (arg == "--no-dataflow") {
      config.dataflow = false;
    } else if (arg == "--max-targets") {
      config.max_indirect_targets = tools::parse_u32(
          kTool, "--max-targets", tools::required_value(kTool, "--max-targets",
                                                        argc, argv, &i));
    } else if (arg == "--suppress") {
      const char* id = tools::required_value(kTool, "--suppress", argc, argv, &i);
      const auto rule = analysis::rule_from_id(id);
      if (!rule.has_value()) {
        std::fprintf(stderr, "%s: unknown rule id '%s'\n", kTool, id);
        return 2;
      }
      config.suppress.insert(*rule);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty() || (porcelain && json)) {
    return usage();
  }

  std::ifstream in(input, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open '%s'\n", kTool, input.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string raw = buffer.str();

  isa::ObjectFile object;
  if (ends_with(input, ".s") || ends_with(input, ".asm")) {
    auto assembled = isa::assemble(raw);
    if (!assembled.is_ok()) {
      std::fprintf(stderr, "%s: %s: %s\n", kTool, input.c_str(),
                   assembled.status().to_string().c_str());
      return 1;
    }
    object = assembled.take();
  } else {
    auto parsed = tbf::read(
        {reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()});
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "%s: %s: %s\n", kTool, input.c_str(),
                   parsed.status().to_string().c_str());
      return 1;
    }
    object = parsed.take();
  }

  const analysis::Analysis full = analysis::analyze_full(object, config);
  const analysis::Report& report = full.report;

  if (json) {
    print_json(input, object, full);
  } else if (porcelain) {
    for (const analysis::Finding& finding : report.findings) {
      std::printf("%s\t%s\t0x%04x\t%s\n",
                  std::string(analysis::rule_id(finding.rule)).c_str(),
                  std::string(analysis::severity_name(finding.severity)).c_str(),
                  finding.offset, finding.message.c_str());
    }
  } else {
    for (const analysis::Finding& finding : report.findings) {
      std::printf("%s\n", analysis::format_finding(finding).c_str());
      print_context(object, finding.offset);
    }
    std::printf("%s: %zu error(s), %zu warning(s) in %zu bytes\n", input.c_str(),
                report.errors(), report.warnings(), object.image.size());
  }

  const bool failed = report.errors() > 0 || (strict && report.warnings() > 0);
  return failed ? 1 : 0;
}
