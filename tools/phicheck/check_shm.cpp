// shm-pod: every struct that crosses the fork shared-memory channel is
// annotated `// phicheck:shm-pod <qualified-name> size=<N> [atomic]` at its
// definition. The checker lexically vets the members (no pointers, no
// allocating std types, nested struct types must themselves be annotated)
// and emits a generated header of static_asserts — standard layout,
// trivially copyable (lock-free atomics instead, for the `atomic` header
// struct), and a sizeof pin — that is compiled into the core library, so
// accidental layout drift fails the build instead of corrupting trials.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "checks.hpp"

namespace phicheck {

namespace {

struct ShmStruct {
  std::string qualified;   ///< e.g. phifi::fi::InjectionRecord
  std::string tail;        ///< InjectionRecord
  long size = -1;          ///< size= pin; -1 when missing
  bool atomic_ok = false;  ///< `atomic` flag: lock-free asserts, no copyable
  std::string file;
  int line = 0;
  const StructDef* def = nullptr;
  const SourceFile* source = nullptr;
};

const std::set<std::string>& fundamental_types() {
  static const std::set<std::string> ok = {
      "bool",          "char",     "signed",        "unsigned", "short",
      "int",           "long",     "float",         "double",   "size_t",
      "int8_t",        "int16_t",  "int32_t",       "int64_t",  "uint8_t",
      "uint16_t",      "uint32_t", "uint64_t",      "intptr_t", "uintptr_t",
      "ptrdiff_t",     "wchar_t",  "char8_t",       "char16_t", "char32_t",
      "std::int8_t",   "byte",
  };
  return ok;
}

const std::set<std::string>& forbidden_type_words() {
  static const std::set<std::string> bad = {
      "string", "vector",    "map",      "unordered_map", "set",
      "list",   "unique_ptr", "shared_ptr", "function",   "string_view",
      "span",   "optional",  "variant",  "any",           "deque",
  };
  return bad;
}

std::string tail_name(const std::string& qualified) {
  const std::size_t at = qualified.rfind("::");
  return at == std::string::npos ? qualified : qualified.substr(at + 2);
}

/// Last identifier of the member's type text — the tag name for user types
/// ("InjectionRecord record" -> "InjectionRecord", "std :: uint64_t" ->
/// "uint64_t").
std::string type_tag(const std::string& type_text) {
  std::istringstream words(type_text);
  std::string word;
  std::string last;
  while (words >> word) {
    if (word == "const" || word == "volatile" || word == "::" ||
        word == "struct") {
      continue;
    }
    last = word;
  }
  return last;
}

}  // namespace

std::vector<Finding> check_shm_pod(const Codebase& cb,
                                   const std::string& emit_path) {
  std::vector<Finding> findings;
  std::vector<ShmStruct> structs;

  for (const SourceFile& file : cb.files) {
    for (const Annotation& ann : file.lexed.annotations) {
      if (ann.directive != "shm-pod") continue;
      ShmStruct s;
      s.file = file.lexed.path;
      s.line = ann.line;
      s.source = &file;
      std::istringstream words(ann.args);
      std::string word;
      words >> s.qualified;
      while (words >> word) {
        if (word.rfind("size=", 0) == 0) {
          s.size = std::stol(word.substr(5));
        } else if (word == "atomic") {
          s.atomic_ok = true;
        } else {
          findings.push_back({s.file, ann.line, "shm-pod",
                              "unknown shm-pod annotation argument '" + word +
                                  "'"});
        }
      }
      if (s.qualified.empty()) {
        findings.push_back({s.file, ann.line, "shm-pod",
                            "shm-pod annotation needs a qualified type name"});
        continue;
      }
      s.tail = tail_name(s.qualified);
      // The annotated struct definition must follow within a few lines.
      for (const StructDef& def : file.structs) {
        if (def.name == s.tail && def.line >= ann.line &&
            def.line - ann.line <= 3) {
          s.def = &def;
          break;
        }
      }
      if (s.def == nullptr) {
        findings.push_back(
            {s.file, ann.line, "shm-pod",
             "no struct '" + s.tail +
                 "' definition found directly below the shm-pod annotation"});
        continue;
      }
      if (s.size < 0) {
        findings.push_back(
            {s.file, s.def->line, "shm-pod",
             "shm-pod '" + s.qualified +
                 "' is missing a size= pin (add size=<sizeof> so layout "
                 "drift breaks the build)"});
      }
      structs.push_back(s);
    }
  }

  std::set<std::string> annotated_tails;
  for (const ShmStruct& s : structs) annotated_tails.insert(s.tail);

  for (const ShmStruct& s : structs) {
    for (const StructMember& m : s.def->members) {
      if (s.source->lexed.allows("shm-pod", m.line)) continue;
      if (m.is_pointer) {
        findings.push_back(
            {s.file, m.line, "shm-pod",
             "pointer member '" + m.name + "' in shared-memory struct '" +
                 s.qualified + "' (pointers do not survive the process "
                 "boundary)"});
        continue;
      }
      const std::string tag = type_tag(m.type_text);
      if (forbidden_type_words().count(tag) != 0) {
        findings.push_back(
            {s.file, m.line, "shm-pod",
             "member '" + m.name + "' of type '" + tag +
                 "' allocates; it cannot live in the shared-memory struct '" +
                 s.qualified + "'"});
        continue;
      }
      if (m.is_atomic) {
        if (!s.atomic_ok) {
          findings.push_back(
              {s.file, m.line, "shm-pod",
               "atomic member '" + m.name + "' in '" + s.qualified +
                   "' — add the `atomic` flag to its shm-pod annotation "
                   "(trivially-copyable is replaced by lock-free asserts)"});
        }
        continue;
      }
      if (fundamental_types().count(tag) != 0) continue;
      if (cb.enums.count(tag) != 0) continue;
      if (annotated_tails.count(tag) != 0) continue;
      findings.push_back(
          {s.file, m.line, "shm-pod",
           "member '" + m.name + "' of '" + s.qualified + "' has type '" +
               tag + "' which is neither fundamental, an enum, nor a "
               "phicheck:shm-pod annotated struct"});
    }
  }

  if (!emit_path.empty() && findings.empty()) {
    std::sort(structs.begin(), structs.end(),
              [](const ShmStruct& a, const ShmStruct& b) {
                return a.qualified < b.qualified;
              });
    std::ostringstream out;
    out << "// GENERATED by `phicheck --emit-shm-asserts` — do not edit.\n"
        << "// Compile-time guards for every struct that crosses the fork\n"
        << "// shared-memory channel (see docs/STATIC_ANALYSIS.md).\n"
        << "#pragma once\n\n"
        << "#include <atomic>\n#include <cstddef>\n#include <type_traits>\n\n";
    std::set<std::string> includes;
    for (const ShmStruct& s : structs) {
      const std::size_t at = s.file.rfind("src/");
      if (at == std::string::npos) {
        findings.push_back(
            {s.file, s.line, "shm-pod",
             "shm-pod struct '" + s.qualified +
                 "' is not defined under src/; the generated assert header "
                 "cannot include its definition"});
        continue;
      }
      includes.insert(s.file.substr(at + 4));
    }
    for (const std::string& inc : includes) {
      out << "#include \"" << inc << "\"\n";
    }
    out << "\n";
    for (const ShmStruct& s : structs) {
      const std::string& q = s.qualified;
      out << "static_assert(std::is_standard_layout_v<" << q << ">,\n"
          << "              \"" << q << " crosses the shared-memory channel "
          << "and must stay standard-layout\");\n";
      if (s.atomic_ok) {
        for (const StructMember& m : s.def->members) {
          if (!m.is_atomic) continue;
          out << "static_assert(decltype(" << q << "::" << m.name
              << ")::is_always_lock_free,\n"
              << "              \"" << q << "::" << m.name
              << " must be lock-free: it is shared between the supervisor "
              << "and the forked trial\");\n";
        }
      } else {
        out << "static_assert(std::is_trivially_copyable_v<" << q << ">,\n"
            << "              \"" << q << " crosses the shared-memory "
            << "channel and must stay trivially copyable\");\n";
      }
      out << "static_assert(std::is_trivially_destructible_v<" << q << ">,\n"
          << "              \"" << q << " lives in a raw mmap; nothing runs "
          << "its destructor\");\n";
      if (s.size >= 0) {
        out << "static_assert(sizeof(" << q << ") == " << s.size << ",\n"
            << "              \"shared-memory layout drift: sizeof(" << q
            << ") changed; update the size= pin in its phicheck:shm-pod "
            << "annotation to acknowledge the new layout\");\n";
      }
      out << "\n";
    }
    if (findings.empty()) {
      if (emit_path == "-") {
        std::cout << out.str();
      } else {
        std::error_code ec;
        const auto parent = std::filesystem::path(emit_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent, ec);
        std::ofstream stream(emit_path);
        stream << out.str();
        if (!stream) {
          findings.push_back({emit_path, 0, "shm-pod",
                              "failed to write generated assert header"});
        }
      }
    }
  }
  return findings;
}

}  // namespace phicheck
