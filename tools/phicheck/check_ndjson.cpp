// ndjson-schema checker: tools/phicheck/ndjson_schema.txt is the single
// source of truth for every NDJSON record family the project emits (trace,
// history, fabric wire payloads). Writer functions carry
//
//   // phicheck:ndjson-writer(trace.end) record
//
// naming their family and the local variable whose `var["field"] = ...`
// assignments build the record. The checker cross-checks the emitted field
// set against the spec in both directions, and --emit-ndjson-schema writes
// the Python field table that tools/check_telemetry.py imports — so a field
// added to a writer but not the spec (or vice versa) fails the build instead
// of producing trace files the validator silently half-checks.
//
// Spec grammar (line-oriented, '#' comments):
//   <family> <field> <field>? ...
// A '?' suffix marks the field optional; repeated lines for one family
// accumulate.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "model.hpp"

namespace phicheck {

namespace {

struct Family {
  std::set<std::string> required;
  std::set<std::string> optional;
};

struct Spec {
  std::vector<std::string> order;  ///< family names, first-seen order
  std::map<std::string, Family> families;
};

bool load_spec(const std::string& path, Spec& spec, std::string& error) {
  std::ifstream stream(path);
  if (!stream) {
    error = "cannot open ndjson schema spec '" + path + "'";
    return false;
  }
  std::string line;
  while (std::getline(stream, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string family;
    if (!(words >> family)) continue;
    if (spec.families.count(family) == 0) spec.order.push_back(family);
    Family& fam = spec.families[family];
    std::string field;
    while (words >> field) {
      if (!field.empty() && field.back() == '?') {
        field.pop_back();
        fam.optional.insert(field);
      } else {
        fam.required.insert(field);
      }
    }
  }
  return true;
}

std::string strip_quotes(const std::string& text) {
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

/// Fields assigned as `var["field"] = ...` anywhere in `fn`'s body.
std::set<std::string> emitted_fields(const SourceFile& file,
                                     const FunctionDef& fn,
                                     const std::string& var) {
  std::set<std::string> out;
  const std::vector<Token>& tokens = file.lexed.tokens;
  for (std::size_t i = fn.body_begin; i + 4 < fn.body_end && i + 4 < tokens.size();
       ++i) {
    if (tokens[i].kind != TokKind::kIdent || tokens[i].text != var) continue;
    if (tokens[i + 1].text != "[") continue;
    if (tokens[i + 2].kind != TokKind::kString) continue;
    if (tokens[i + 3].text != "]") continue;
    if (tokens[i + 4].text != "=") continue;
    out.insert(strip_quotes(tokens[i + 2].text));
  }
  return out;
}

void emit_python_table(const Spec& spec, const std::string& spec_path,
                       const std::string& emit_path) {
  std::ostringstream out;
  out << "# Generated by `phicheck --emit-ndjson-schema` from " << spec_path
      << ".\n"
      << "# One entry per NDJSON record family; do not edit — regenerate via "
         "the build.\n"
      << "SCHEMA = {\n";
  for (const std::string& name : spec.order) {
    const Family& fam = spec.families.at(name);
    out << "    \"" << name << "\": {\n        \"required\": [";
    bool first = true;
    for (const std::string& f : fam.required) {
      out << (first ? "" : ", ") << "\"" << f << "\"";
      first = false;
    }
    out << "],\n        \"optional\": [";
    first = true;
    for (const std::string& f : fam.optional) {
      out << (first ? "" : ", ") << "\"" << f << "\"";
      first = false;
    }
    out << "],\n    },\n";
  }
  out << "}\n";
  if (emit_path == "-") {
    std::cout << out.str();
    return;
  }
  const std::filesystem::path target(emit_path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  std::ofstream stream(target);
  stream << out.str();
}

}  // namespace

std::vector<Finding> check_ndjson_schema(const Codebase& cb,
                                         const std::string& schema_path,
                                         const std::string& emit_path) {
  std::vector<Finding> findings;
  Spec spec;
  bool have_spec = false;
  if (!schema_path.empty()) {
    std::string error;
    if (!load_spec(schema_path, spec, error)) {
      findings.push_back({schema_path, 0, "ndjson-schema", error});
      return findings;
    }
    have_spec = true;
  }

  std::set<std::string> families_with_writer;
  for (const SourceFile& file : cb.files) {
    for (const Annotation& ann : file.lexed.annotations) {
      if (ann.directive.rfind("ndjson-writer(", 0) != 0) continue;
      const std::size_t close = ann.directive.find(')');
      if (close == std::string::npos) continue;
      const std::string family = ann.directive.substr(14, close - 14);
      std::istringstream args(ann.args);
      std::string var;
      args >> var;
      if (family.empty() || var.empty()) {
        findings.push_back(
            {file.lexed.path, ann.line, "ndjson-schema",
             "malformed annotation; expected "
             "phicheck:ndjson-writer(<family>) <record-variable>"});
        continue;
      }
      if (!have_spec) {
        findings.push_back(
            {file.lexed.path, ann.line, "ndjson-schema",
             "ndjson-writer(" + family +
                 ") cannot be verified: no --ndjson-schema spec was given"});
        continue;
      }
      const FunctionDef* fn = function_below(file, ann.line, 12);
      if (fn == nullptr) {
        findings.push_back({file.lexed.path, ann.line, "ndjson-schema",
                            "ndjson-writer(" + family +
                                ") annotation does not precede a function "
                                "definition"});
        continue;
      }
      const auto fam_it = spec.families.find(family);
      if (fam_it == spec.families.end()) {
        findings.push_back({file.lexed.path, ann.line, "ndjson-schema",
                            "record family '" + family +
                                "' is not declared in " + schema_path});
        continue;
      }
      families_with_writer.insert(family);
      const Family& fam = fam_it->second;
      const std::set<std::string> written = emitted_fields(file, *fn, var);
      if (written.empty()) {
        findings.push_back(
            {file.lexed.path, fn->line, "ndjson-schema",
             "ndjson-writer(" + family + ") found no '" + var +
                 "[\"field\"] = ...' assignments in '" + fn->name + "'"});
        continue;
      }
      for (const std::string& field : written) {
        if (fam.required.count(field) == 0 && fam.optional.count(field) == 0) {
          findings.push_back(
              {file.lexed.path, fn->line, "ndjson-schema",
               "'" + fn->name + "' writes field '" + field +
                   "' not declared for family '" + family + "' in " +
                   schema_path});
        }
      }
      for (const std::string& field : fam.required) {
        if (written.count(field) == 0) {
          findings.push_back({file.lexed.path, fn->line, "ndjson-schema",
                              "'" + fn->name +
                                  "' does not write required field '" + field +
                                  "' of family '" + family + "'"});
        }
      }
    }
  }

  // Only the emit step (the src-wide build-time run) demands total coverage;
  // single-fixture scans legitimately see a subset of the writers.
  if (have_spec && !emit_path.empty()) {
    for (const std::string& name : spec.order) {
      if (families_with_writer.count(name) == 0) {
        findings.push_back(
            {schema_path, 0, "ndjson-schema",
             "family '" + name +
                 "' is declared in the spec but no scanned "
                 "phicheck:ndjson-writer emits it"});
      }
    }
  }

  if (!emit_path.empty() && findings.empty() && have_spec) {
    emit_python_table(spec, schema_path, emit_path);
  }
  return findings;
}

}  // namespace phicheck
