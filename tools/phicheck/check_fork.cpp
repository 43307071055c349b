// fork-safety: between fork() and the child's workload entry point the
// child may only touch async-fork-safe state. The supervisor forks with the
// campaign process single-threaded, but the invariant "no heap, no stdio,
// no locks before the workload entry" is what keeps that comment true as
// the code grows — a post-fork malloc under a multi-threaded parent is a
// latent deadlock that manifests as a spurious DUE.
//
// Conventions enforced:
//   * the `if (pid == 0)` branch after fork() may only call functions
//     annotated `// phicheck:fork-child-entry` (or _exit/exec*),
//   * inside a child-entry function, everything before the
//     `// phicheck:fork-workload-entry` marker is checked against the
//     banned set (heap, stdio, locking); after the marker the workload owns
//     the process and anything goes,
//   * a `// phicheck:fork-resume` function is a serve loop whose child
//     returns to its caller to resume an interrupted run: each child
//     branch must end in `return` right after a fork-child-entry call, and
//     its whole body is checked against the banned set, because the child
//     runs it before the workload resumes.
#include <climits>
#include <set>

#include "checks.hpp"

namespace phicheck {

namespace {

const std::set<std::string>& banned_calls() {
  static const std::set<std::string> banned = {
      "malloc",  "calloc",  "realloc", "free",     "strdup",   "printf",
      "fprintf", "sprintf", "snprintf", "vfprintf", "puts",    "fputs",
      "fwrite",  "fread",   "fopen",   "freopen",  "fclose",   "fflush",
      "setvbuf", "fdopen",  "popen",   "system",   "make_unique",
      "make_shared",
  };
  return banned;
}

const std::set<std::string>& banned_methods() {
  static const std::set<std::string> banned = {"lock", "unlock", "try_lock"};
  return banned;
}

const std::set<std::string>& banned_idents() {
  static const std::set<std::string> banned = {
      "cout", "cerr", "clog", "lock_guard", "unique_lock", "scoped_lock",
      "mutex",
  };
  return banned;
}

const std::set<std::string>& exec_like() {
  static const std::set<std::string> ok = {
      "_exit", "_Exit", "execve", "execv", "execvp", "execl", "execlp",
      "execle", "abort",
  };
  return ok;
}

/// Function names in `file` annotated with `directive` (annotation sits at
/// most 5 lines above the function body's opening brace).
std::set<std::string> annotated_functions(const SourceFile& file,
                                          const std::string& directive) {
  std::set<std::string> out;
  for (const Annotation& ann : file.lexed.annotations) {
    if (ann.directive != directive) continue;
    const FunctionDef* best = nullptr;
    for (const FunctionDef& fn : file.functions) {
      if (fn.line >= ann.line && fn.line - ann.line <= 5 &&
          (best == nullptr || fn.line < best->line)) {
        best = &fn;
      }
    }
    if (best != nullptr) out.insert(best->name);
  }
  return out;
}

/// Token texts after the call `call` (past its closing parenthesis) up to
/// and including `block_end`.
std::vector<std::string> tail_after_call(const std::vector<Token>& tokens,
                                         const CallSite& call,
                                         std::size_t block_end) {
  std::size_t after = call.token_index;
  while (after < block_end && tokens[after].text != "(") ++after;
  int depth = 0;
  for (; after <= block_end; ++after) {
    if (tokens[after].text == "(") {
      ++depth;
    } else if (tokens[after].text == ")" && --depth == 0) {
      ++after;
      break;
    }
  }
  std::vector<std::string> tail;
  for (; after <= block_end; ++after) tail.push_back(tokens[after].text);
  return tail;
}

/// Whether `tail` starts with `expected` and holds only `;`/`}` after it.
bool tail_is(const std::vector<std::string>& tail,
             const std::vector<std::string>& expected) {
  if (tail.size() < expected.size()) return false;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    if (i < expected.size() ? tail[i] != expected[i]
                            : tail[i] != ";" && tail[i] != "}") {
      return false;
    }
  }
  return true;
}

/// Checks one child-entry function: banned constructs before the
/// fork-workload-entry marker (or the whole body when no marker).
void check_child_entry(const SourceFile& file, const FunctionDef& fn,
                       const std::string& role,
                       std::vector<Finding>& findings) {
  const std::vector<Token>& tokens = file.lexed.tokens;
  int boundary = INT_MAX;
  const int body_first = tokens[fn.body_begin].line;
  const int body_last = tokens[fn.body_end].line;
  for (const Annotation& ann : file.lexed.annotations) {
    if (ann.directive == "fork-workload-entry" && ann.line >= body_first &&
        ann.line <= body_last) {
      boundary = ann.line;
      break;
    }
  }
  const auto report = [&](int line, const std::string& what) {
    if (file.lexed.allows("fork-safety", line)) return;
    findings.push_back(
        {file.lexed.path, line, "fork-safety",
         what + " between fork() and the workload entry point in " + role +
             " '" + fn.name + "'"});
  };
  for (const CallSite& call : fn.calls) {
    if (call.line >= boundary) continue;
    if (call.member ? banned_methods().count(call.name) != 0
                    : banned_calls().count(call.name) != 0) {
      report(call.line, "call to '" + call.name + "' (" +
                            (call.member ? "locking" : "heap/stdio") + ")");
    }
  }
  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    const Token& t = tokens[i];
    if (t.line >= boundary || t.kind != TokKind::kIdent) continue;
    if (t.text == "new") {
      report(t.line, "heap allocation ('new')");
    } else if (banned_idents().count(t.text) != 0) {
      report(t.line, "use of '" + t.text + "'");
    }
  }
}

}  // namespace

std::vector<Finding> check_fork_safety(const Codebase& cb) {
  std::vector<Finding> findings;
  for (const SourceFile& file : cb.files) {
    const std::set<std::string> entries =
        annotated_functions(file, "fork-child-entry");
    const std::set<std::string> resumes =
        annotated_functions(file, "fork-resume");
    const std::vector<Token>& tokens = file.lexed.tokens;
    for (const FunctionDef& fn : file.functions) {
      for (const CallSite& call : fn.calls) {
        if (call.member || call.name != "fork") continue;
        // `var = fork()` / `var = ::fork()`: recover the result variable.
        std::size_t back = call.token_index;
        if (back > 0 && tokens[back - 1].text == "::") --back;
        std::string var;
        if (back >= 2 && tokens[back - 1].text == "=" &&
            tokens[back - 2].kind == TokKind::kIdent) {
          var = tokens[back - 2].text;
        }
        if (var.empty()) {
          findings.push_back(
              {file.lexed.path, call.line, "fork-safety",
               "fork() result is not assigned to a variable; the checker "
               "cannot find the child branch (use `pid = fork(); if (pid == "
               "0) ...`)"});
          continue;
        }
        // Locate `if (var == 0)` and its child block.
        bool found_branch = false;
        for (std::size_t i = call.token_index; i + 5 < fn.body_end; ++i) {
          if (tokens[i].text == "if" && tokens[i + 1].text == "(" &&
              tokens[i + 2].text == var && tokens[i + 3].text == "==" &&
              tokens[i + 4].text == "0" && tokens[i + 5].text == ")") {
            found_branch = true;
            std::size_t block_begin = i + 6;
            std::size_t block_end;
            if (tokens[block_begin].text == "{") {
              block_end = match_brace(tokens, block_begin);
            } else {
              block_end = block_begin;
              while (block_end < fn.body_end && tokens[block_end].text != ";") {
                ++block_end;
              }
            }
            for (const CallSite& child_call : fn.calls) {
              if (child_call.token_index <= block_begin ||
                  child_call.token_index >= block_end) {
                continue;
              }
              if (entries.count(child_call.name) != 0 ||
                  exec_like().count(child_call.name) != 0 ||
                  file.lexed.allows("fork-safety", child_call.line)) {
                continue;
              }
              findings.push_back(
                  {file.lexed.path, child_call.line, "fork-safety",
                   "child branch of fork() calls '" + child_call.name +
                       "', which is not annotated phicheck:fork-child-entry "
                       "(and is not _exit/exec*)"});
            }
            // The last call of the child branch, and what follows it.
            const CallSite* last = nullptr;
            for (const CallSite& child_call : fn.calls) {
              if (child_call.token_index >= block_begin &&
                  child_call.token_index <= block_end &&
                  (last == nullptr ||
                   child_call.token_index > last->token_index)) {
                last = &child_call;
              }
            }
            const std::vector<std::string> tail =
                last == nullptr ? std::vector<std::string>{}
                                : tail_after_call(tokens, *last, block_end);
            if (file.lexed.allows("fork-safety", tokens[i].line)) {
              // Suppressed by hand.
            } else if (resumes.count(fn.name) != 0) {
              // Resume server: the child returns to its caller and resumes
              // the interrupted run — right after its entry call, never
              // back into the serve loop.
              if (last == nullptr || entries.count(last->name) == 0 ||
                  !tail_is(tail, {";", "return", ";"})) {
                findings.push_back(
                    {file.lexed.path, tokens[i].line, "fork-safety",
                     "resume server '" + fn.name +
                         "' forks a child whose branch does not return "
                         "right after a fork-child-entry call; end it "
                         "with `entry(...); return;` so the child resumes "
                         "the interrupted run"});
              }
            } else if (entries.count(fn.name) != 0) {
              // Double-fork (fork-server) topology: when a child-entry
              // function itself forks, its child branch must end the
              // grandchild — last statement a call to an entry or
              // _exit/exec* function with nothing after it. A branch that
              // falls through resumes the template's serve loop in the
              // grandchild, and two processes start consuming commands.
              const bool terminates =
                  last != nullptr &&
                  (entries.count(last->name) != 0 ||
                   exec_like().count(last->name) != 0) &&
                  tail_is(tail, {});
              if (!terminates) {
                findings.push_back(
                    {file.lexed.path, tokens[i].line, "fork-safety",
                     "fork-server '" + fn.name +
                         "' forks a grandchild whose branch can fall "
                         "through into the serve loop; end the child "
                         "branch with a call to a fork-child-entry or "
                         "_exit/exec* function (or annotate a serve loop "
                         "whose child resumes its caller "
                         "phicheck:fork-resume)"});
              }
            }
            break;
          }
        }
        if (!found_branch && !file.lexed.allows("fork-safety", call.line)) {
          findings.push_back(
              {file.lexed.path, call.line, "fork-safety",
               "no `if (" + var + " == 0)` child branch found after fork()"});
        }
      }
    }
    for (const FunctionDef& fn : file.functions) {
      if (entries.count(fn.name) != 0) {
        check_child_entry(file, fn, "child-entry function", findings);
      } else if (resumes.count(fn.name) != 0) {
        check_child_entry(file, fn, "resume server", findings);
      }
    }
  }
  return findings;
}

}  // namespace phicheck
