// The nest-lint rule catalog. Every rule is a pure pass over pre-lexed
// token streams (plus the two non-source inputs: src/common/lockrank.h's
// rank enum and the rank table in docs/static-analysis.md). Rules are
// listed here in the order they run; docs/static-analysis.md is the
// user-facing catalog and must stay in sync.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "nest_lint.h"

namespace nestlint {
namespace {

// ---------------------------------------------------------------------------
// Rule: layering — the include DAG between src/ subdirs.
//
// Bands, innermost utilities first. An #include edge is legal when the
// target's band is <= the including file's band (same-band edges are
// allowed: dispatcher<->protocol share request/queue types by design).
// sim/simnest/loadgen are the sandbox: the deterministic harness may
// include anything, but production code may never include the sandbox.
// docs/static-analysis.md explains each band; update both together.
const std::map<std::string, int>& bands() {
  static const std::map<std::string, int> kBands = {
      {"common", 0},
      {"classad", 1}, {"fault", 1},
      {"net", 2}, {"obs", 2}, {"discovery", 2},
      {"storage", 3}, {"journal", 3},
      {"transfer", 4}, {"hsm", 4}, {"cluster", 4}, {"jbos", 4},
      {"dispatcher", 5}, {"protocol", 5},
      {"server", 6}, {"client", 6},
  };
  return kBands;
}

const std::set<std::string>& sandbox() {
  static const std::set<std::string> kSandbox = {"sim", "simnest", "loadgen"};
  return kSandbox;
}

// "#include \"storage/vfs.h\"" -> "storage"; "" when not a quoted
// subdir-qualified include.
std::string included_subdir(const std::string& pp_text) {
  auto q1 = pp_text.find('"');
  if (q1 == std::string::npos) return {};
  auto q2 = pp_text.find('"', q1 + 1);
  if (q2 == std::string::npos) return {};
  std::string path = pp_text.substr(q1 + 1, q2 - q1 - 1);
  auto slash = path.find('/');
  if (slash == std::string::npos) return {};
  return path.substr(0, slash);
}

void rule_layering(const Context& ctx, std::vector<Finding>& out) {
  for (const auto& f : ctx.files) {
    if (f.subdir.empty()) continue;
    const bool from_sandbox = sandbox().count(f.subdir) != 0;
    auto from_band = bands().find(f.subdir);
    if (!from_sandbox && from_band == bands().end()) {
      out.push_back({f.rel_path, 1, "layering",
                     "src/" + f.subdir +
                         "/ is not in the layering table; add it to "
                         "bands() in tools/nest-lint/rules.cpp and to "
                         "docs/static-analysis.md"});
      continue;
    }
    for (const auto& t : f.toks) {
      if (t.kind != Tok::pp) continue;
      if (t.text.find("include") == std::string::npos) continue;
      std::string target = included_subdir(t.text);
      if (target.empty() || target == f.subdir) continue;
      if (from_sandbox) continue;  // sandbox may include anything
      if (sandbox().count(target) != 0) {
        out.push_back({f.rel_path, t.line, "layering",
                       "production code must not include the sim sandbox "
                       "(src/" + target + "/)"});
        continue;
      }
      auto to_band = bands().find(target);
      if (to_band == bands().end()) continue;  // not a src subdir include
      if (to_band->second > from_band->second) {
        out.push_back({f.rel_path, t.line, "layering",
                       "back-edge include: src/" + f.subdir + "/ (band " +
                           std::to_string(from_band->second) +
                           ") must not include src/" + target + "/ (band " +
                           std::to_string(to_band->second) +
                           "); see the layering DAG in "
                           "docs/static-analysis.md"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: syscalls — blocking-syscall confinement.
//
// Wire I/O syscalls live in src/net only; blocking file-I/O syscalls
// live in src/storage, src/journal, src/net, src/hsm. Everything else
// goes through the VirtualFs / net::TcpStream abstractions so fallback
// semantics, failpoints, and zero-copy paths stay in one place, and so a
// protocol thread can never sneak an unbounded disk wait past the
// scheduler. Process creation is forbidden everywhere in src/: the server
// is multi-threaded, and a forked child inherits every lock another
// thread held at fork time, still locked.
const std::set<std::string>& socket_syscalls() {
  static const std::set<std::string> k = {
      "send", "recv", "sendto", "recvfrom", "sendfile",
      "writev", "sendmsg", "recvmsg"};
  return k;
}

const std::set<std::string>& file_syscalls() {
  static const std::set<std::string> k = {
      "open", "openat", "creat", "close", "read", "pread", "readv", "preadv",
      "write", "pwrite", "pwritev", "fsync", "fdatasync", "syncfs", "stat",
      "fstat", "lstat", "statvfs", "fstatvfs", "lseek", "ftruncate",
      "truncate", "unlink", "unlinkat", "rename", "renameat", "mkdir",
      "mkdirat", "rmdir", "opendir", "readdir", "closedir"};
  return k;
}

const std::set<std::string>& process_syscalls() {
  static const std::set<std::string> k = {
      "fork",   "vfork",   "waitpid", "wait4",       "execv",
      "execve", "execvp", "execvpe", "posix_spawn", "posix_spawnp"};
  return k;
}

bool is_global_call(const std::vector<Token>& code, std::size_t i) {
  // code[i] == "::": global-qualified call when not preceded by a name
  // (which would make it Foo::bar) and followed by ident + '('.
  if (i + 2 >= code.size()) return false;
  if (code[i + 1].kind != Tok::ident) return false;
  if (!(code[i + 2].kind == Tok::punct && code[i + 2].text == "(")) {
    return false;
  }
  if (i == 0) return true;
  const Token& prev = code[i - 1];
  if (prev.kind == Tok::ident) {
    // `Foo::open` is a qualified member; `return ::open` is global — a
    // keyword before `::` does not qualify the name.
    static const std::set<std::string> kKeywords = {
        "return", "co_return", "co_yield", "co_await", "throw", "case",
        "else", "do", "new", "delete", "not", "and", "or"};
    return kKeywords.count(prev.text) != 0;
  }
  if (prev.kind == Tok::number) return false;
  if (prev.kind == Tok::punct && (prev.text == ">" || prev.text == ")")) {
    return false;
  }
  return true;
}

void rule_syscalls(const Context& ctx, std::vector<Finding>& out) {
  for (const auto& f : ctx.files) {
    // Production code may not include the sim sandbox, so I/O there can
    // never stall a protocol thread. The process rule applies to every
    // src/ file, the sandbox included.
    const bool exempt = f.subdir.empty() || sandbox().count(f.subdir) != 0;
    const bool net_ok = exempt || f.subdir == "net";
    const bool file_ok = exempt || f.subdir == "storage" ||
                         f.subdir == "journal" || f.subdir == "net" ||
                         f.subdir == "hsm";
    auto code = code_only(f.toks);
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (!(code[i].kind == Tok::punct && code[i].text == "::")) continue;
      if (!is_global_call(code, i)) continue;
      const std::string& name = code[i + 1].text;
      std::string message;
      if (process_syscalls().count(name) != 0) {
        message = "raw ::" + name +
                  "() in src/ — the server is multi-threaded; never fork, "
                  "exec, or wait for a child process";
      } else if (!net_ok && socket_syscalls().count(name) != 0) {
        message = "raw ::" + name +
                  "() outside src/net/ — use net::TcpStream / "
                  "net::UdpSocket (src/net/socket.h)";
      } else if (!file_ok && file_syscalls().count(name) != 0) {
        message = "raw ::" + name +
                  "() outside src/{storage,journal,net,hsm}/ — "
                  "blocking I/O goes through VirtualFs "
                  "(src/storage/vfs.h) or the net layer";
      } else {
        continue;
      }
      if (ctx.line_allowed(f.rel_path, "syscalls", code[i + 1].line)) {
        continue;
      }
      out.push_back({f.rel_path, code[i + 1].line, "syscalls", message});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lockrank — the rank enum and the documented rank table must agree.
//
// src/common/lockrank.h is the enforcing artifact; the table in
// docs/static-analysis.md is what humans read when picking a rank. Drift
// between them is how a "documented" order stops being the real order.
std::map<std::string, int> parse_rank_enum(const std::vector<Token>& toks,
                                           bool& found_enum) {
  std::map<std::string, int> ranks;
  auto code = code_only(toks);
  found_enum = false;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!(code[i].kind == Tok::ident && code[i].text == "enum")) continue;
    std::size_t j = i + 1;
    if (code[j].kind == Tok::ident && code[j].text == "class") ++j;
    if (!(code[j].kind == Tok::ident && code[j].text == "Rank")) continue;
    // Skip to the opening brace, then collect `name = number` pairs.
    while (j < code.size() &&
           !(code[j].kind == Tok::punct && code[j].text == "{")) {
      ++j;
    }
    found_enum = j < code.size();
    for (++j; j < code.size(); ++j) {
      if (code[j].kind == Tok::punct && code[j].text == "}") break;
      if (code[j].kind == Tok::ident && j + 2 < code.size() &&
          code[j + 1].kind == Tok::punct && code[j + 1].text == "=" &&
          code[j + 2].kind == Tok::number) {
        ranks[code[j].text] =
            static_cast<int>(std::strtol(code[j + 2].text.c_str(), nullptr, 0));
        j += 2;
      }
    }
    break;
  }
  return ranks;
}

// Parse `| 30 | `storage_meta` | ... |` markdown rows.
std::map<std::string, int> parse_rank_table(const std::string& text,
                                            std::vector<int>& order) {
  // Only the table whose header cell says "rank" is the canonical rank
  // table — the doc also carries other `| N | `name` |` tables (the
  // layering bands), which must not be read as ranks.
  std::map<std::string, int> ranks;
  std::istringstream in(text);
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '|') {
      in_table = false;
      continue;
    }
    if (!in_table) {
      if (line.find("rank") != std::string::npos &&
          line.find("name") != std::string::npos) {
        in_table = true;
      }
      continue;
    }
    std::vector<std::string> cells;
    std::string cell;
    for (std::size_t i = first + 1; i < line.size(); ++i) {
      if (line[i] == '|') {
        cells.push_back(cell);
        cell.clear();
      } else {
        cell += line[i];
      }
    }
    if (cells.size() < 2) continue;
    char* end = nullptr;
    const long rank = std::strtol(cells[0].c_str(), &end, 10);
    if (end == cells[0].c_str()) continue;  // header / separator row
    auto b1 = cells[1].find('`');
    if (b1 == std::string::npos) continue;
    auto b2 = cells[1].find('`', b1 + 1);
    if (b2 == std::string::npos) continue;
    std::string name = cells[1].substr(b1 + 1, b2 - b1 - 1);
    ranks[name] = static_cast<int>(rank);
    order.push_back(static_cast<int>(rank));
  }
  return ranks;
}

void rule_lockrank(const Context& ctx, std::vector<Finding>& out) {
  const SourceFile* lockrank_h = nullptr;
  for (const auto& f : ctx.files) {
    if (f.rel_path == "src/common/lockrank.h") lockrank_h = &f;
  }
  if (lockrank_h == nullptr) return;  // tree without the detector (fixtures)
  bool found_enum = false;
  auto code_ranks = parse_rank_enum(lockrank_h->toks, found_enum);
  if (!found_enum || code_ranks.empty()) {
    out.push_back({"src/common/lockrank.h", 1, "lockrank",
                   "could not parse `enum class Rank` — the drift check "
                   "needs `name = <number>` enumerators"});
    return;
  }
  const std::string docs_rel = "docs/static-analysis.md";
  std::string docs;
  if (!read_file(ctx.root / docs_rel, docs)) {
    out.push_back({docs_rel, 1, "lockrank",
                   "missing — the canonical rank table must be documented "
                   "next to the suppression policy"});
    return;
  }
  std::vector<int> order;
  auto doc_ranks = parse_rank_table(docs, order);
  for (const auto& [name, rank] : code_ranks) {
    auto it = doc_ranks.find(name);
    if (it == doc_ranks.end()) {
      out.push_back({docs_rel, 1, "lockrank",
                     "rank table is missing `" + name + "` (= " +
                         std::to_string(rank) + " in src/common/lockrank.h)"});
    } else if (it->second != rank) {
      out.push_back({docs_rel, 1, "lockrank",
                     "rank drift: `" + name + "` is " +
                         std::to_string(it->second) + " in the table but " +
                         std::to_string(rank) + " in src/common/lockrank.h"});
    }
  }
  for (const auto& [name, rank] : doc_ranks) {
    if (code_ranks.find(name) == code_ranks.end()) {
      out.push_back({docs_rel, 1, "lockrank",
                     "rank table lists `" + name + "` (= " +
                         std::to_string(rank) +
                         ") which src/common/lockrank.h does not define"});
    }
  }
  if (!std::is_sorted(order.begin(), order.end())) {
    out.push_back({docs_rel, 1, "lockrank",
                   "rank table rows are not in ascending rank order"});
  }
}

// ---------------------------------------------------------------------------
// Rule: suppress — every waiver must be named, reasoned, and budgeted.
//
//  * clang-tidy: bare NOLINT / NOLINTNEXTLINE (no check name) is a
//    blanket waiver and is rejected.
//  * NO_THREAD_SAFETY_ANALYSIS is budgeted at kNtsaBudget uses in the
//    whole tree, and the "Current uses (N of B)" line in
//    docs/static-analysis.md must state the real count.
//  * nest-lint's own `nest-lint: allow(rule): reason` comments must name
//    a real rule and carry a reason.
constexpr int kNtsaBudget = 3;

bool known_rule(const std::string& name) {
  for (const auto& r : all_rules()) {
    if (name == r.name) return true;
  }
  return false;
}

void rule_suppress(const Context& ctx, std::vector<Finding>& out) {
  int ntsa_count = 0;
  for (const auto& f : ctx.files) {
    const bool is_shim = f.rel_path == "src/common/thread_annotations.h";
    for (const auto& t : f.toks) {
      if (t.kind == Tok::ident && !is_shim &&
          t.text == "NO_THREAD_SAFETY_ANALYSIS") {
        ++ntsa_count;
      }
      if (t.kind != Tok::comment) continue;
      for (std::size_t pos = t.text.find("NOLINT"); pos != std::string::npos;
           pos = t.text.find("NOLINT", pos + 1)) {
        std::size_t after = pos + 6;  // len("NOLINT")
        if (t.text.compare(after, 8, "NEXTLINE") == 0) after += 8;
        if (after >= t.text.size() || t.text[after] != '(') {
          out.push_back({f.rel_path, t.line, "suppress",
                         "bare NOLINT — name the check, e.g. "
                         "NOLINT(bugprone-foo), and say why"});
        }
        pos = after;
        if (pos >= t.text.size()) break;
      }
      auto mark = t.text.find("nest-lint:");
      if (mark != std::string::npos) {
        // Expected: nest-lint: allow(<rule>): <reason>
        std::string rest = t.text.substr(mark + 10);
        auto ws = rest.find_first_not_of(" \t");
        rest = (ws == std::string::npos) ? "" : rest.substr(ws);
        bool ok = false;
        if (rest.compare(0, 6, "allow(") == 0) {
          auto close = rest.find(')');
          if (close != std::string::npos && known_rule(rest.substr(6, close - 6))) {
            std::string reason = rest.substr(close + 1);
            auto colon = reason.find(':');
            ok = colon != std::string::npos &&
                 reason.find_first_not_of(" \t", colon + 1) !=
                     std::string::npos;
          }
        }
        if (!ok) {
          out.push_back(
              {f.rel_path, t.line, "suppress",
               "malformed nest-lint comment — use `nest-lint: "
               "allow(<rule>): <reason>` with a rule from --list-rules"});
        }
      }
    }
  }
  if (ntsa_count > kNtsaBudget) {
    out.push_back({"src", 0, "suppress",
                   "NO_THREAD_SAFETY_ANALYSIS used " +
                       std::to_string(ntsa_count) + " times; the budget is " +
                       std::to_string(kNtsaBudget) +
                       " (docs/static-analysis.md) — restructure instead"});
  }
  std::string docs;
  if (read_file(ctx.root / "docs/static-analysis.md", docs)) {
    auto pos = docs.find("Current uses (");
    if (pos != std::string::npos) {
      const int documented =
          static_cast<int>(std::strtol(docs.c_str() + pos + 14, nullptr, 10));
      if (documented != ntsa_count) {
        out.push_back({"docs/static-analysis.md", 0, "suppress",
                       "documented NO_THREAD_SAFETY_ANALYSIS count (" +
                           std::to_string(documented) +
                           ") != actual uses in src/ (" +
                           std::to_string(ntsa_count) + ")"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: errno — errno read twice in one full expression/statement.
//
// The second read is unsequenced against whatever call clobbers errno in
// the same expression (classic: strerror(errno) + errno as two args).
// Save errno to a const local first; src/net/socket.cpp shows the
// pattern.
void rule_errno(const Context& ctx, std::vector<Finding>& out) {
  for (const auto& f : ctx.files) {
    if (f.subdir.empty()) continue;
    auto code = code_only(f.toks);
    int reads_this_stmt = 0;
    for (const auto& t : code) {
      if (t.kind == Tok::punct &&
          (t.text == ";" || t.text == "{" || t.text == "}")) {
        reads_this_stmt = 0;
        continue;
      }
      if (t.kind == Tok::ident && t.text == "errno") {
        if (++reads_this_stmt == 2 &&
            !ctx.line_allowed(f.rel_path, "errno", t.line)) {
          out.push_back({f.rel_path, t.line, "errno",
                         "errno read twice in one statement — save it to a "
                         "const local first (unspecified evaluation order)"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: stdlocks — no naked standard lock primitives outside the wrapper.
//
// Every mutex in src/ must be a nest::Mutex/SharedMutex so it carries a
// lock rank and the thread-safety capability (docs/static-analysis.md).
void rule_stdlocks(const Context& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kLocks = {
      "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
      "condition_variable", "condition_variable_any", "lock_guard",
      "unique_lock", "scoped_lock", "shared_lock"};
  for (const auto& f : ctx.files) {
    if (f.subdir.empty()) continue;
    if (f.rel_path == "src/common/mutex.h" ||
        f.rel_path == "src/common/lockrank.h" ||
        f.rel_path == "src/common/lockrank.cpp" ||
        f.rel_path == "src/common/thread_annotations.h") {
      continue;
    }
    auto code = code_only(f.toks);
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
      if (code[i].kind == Tok::ident && code[i].text == "std" &&
          code[i + 1].kind == Tok::punct && code[i + 1].text == "::" &&
          code[i + 2].kind == Tok::ident && kLocks.count(code[i + 2].text)) {
        if (ctx.line_allowed(f.rel_path, "stdlocks", code[i + 2].line)) {
          continue;
        }
        out.push_back({f.rel_path, code[i + 2].line, "stdlocks",
                       "naked std::" + code[i + 2].text +
                           " — use nest::Mutex / MutexLock "
                           "(src/common/mutex.h) so the lock carries a rank "
                           "and a capability"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: nodiscard — error returns must be impossible to drop silently.
//
// Every function declared in a src/ header returning Errc, Status, or
// Result<T> must carry NEST_NODISCARD (src/common/result.h). The class
// types are themselves [[nodiscard]], but Errc is a plain enum and the
// per-function marker keeps the contract visible at the declaration —
// and lets -Werror=unused-result (on in every preset) reject any caller
// that ignores the return.
bool body_open_brace(const std::vector<Token>& code, std::size_t i) {
  // code[i] == "{". Heuristic: a brace opens a *function body* (or other
  // statement scope) when what precedes it can only end a function
  // signature or a control clause; otherwise it is a class/enum/namespace
  // scope and declarations inside it are checked.
  if (i == 0) return false;
  const Token& p = code[i - 1];
  if (p.kind == Tok::punct) {
    return p.text == ")" || p.text == "=" || p.text == "," || p.text == "(" ||
           p.text == "[" || p.text == "{";
  }
  if (p.kind == Tok::ident) {
    return p.text == "const" || p.text == "noexcept" || p.text == "override" ||
           p.text == "final" || p.text == "try" || p.text == "else" ||
           p.text == "do" || p.text == "return" || p.text == "mutable";
  }
  return false;
}

bool is_specifier(const std::string& s) {
  return s == "virtual" || s == "static" || s == "inline" ||
         s == "constexpr" || s == "explicit" || s == "extern" ||
         s == "friend";
}

void rule_nodiscard(const Context& ctx, std::vector<Finding>& out) {
  for (const auto& f : ctx.files) {
    if (f.subdir.empty() || !f.is_header) continue;
    if (f.rel_path == "src/common/result.h") continue;  // defines the types
    auto code = code_only(f.toks);
    std::vector<bool> body_stack;  // true = inside a function/statement body
    int body_depth = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Token& t = code[i];
      if (t.kind == Tok::punct && t.text == "{") {
        const bool body = body_open_brace(code, i);
        body_stack.push_back(body);
        body_depth += body ? 1 : 0;
        continue;
      }
      if (t.kind == Tok::punct && t.text == "}") {
        if (!body_stack.empty()) {
          body_depth -= body_stack.back() ? 1 : 0;
          body_stack.pop_back();
        }
        continue;
      }
      if (body_depth > 0) continue;  // statements, not declarations
      if (t.kind != Tok::ident) continue;
      if (t.text != "Errc" && t.text != "Status" && t.text != "Result") {
        continue;
      }
      // Return type must start the declarator: walk back over specifiers
      // (and a nest:: qualifier) to the anchor token.
      std::size_t b = i;
      if (b >= 2 && code[b - 1].kind == Tok::punct &&
          code[b - 1].text == "::" && code[b - 2].kind == Tok::ident &&
          code[b - 2].text == "nest") {
        b -= 2;
      }
      bool annotated = false;
      bool is_friend = false;
      while (b > 0 && code[b - 1].kind == Tok::ident &&
             (is_specifier(code[b - 1].text) ||
              code[b - 1].text == "NEST_NODISCARD")) {
        if (code[b - 1].text == "NEST_NODISCARD") annotated = true;
        if (code[b - 1].text == "friend") is_friend = true;
        --b;
      }
      if (b > 0) {
        const Token& anchor = code[b - 1];
        const bool decl_position =
            anchor.kind == Tok::punct &&
            (anchor.text == ";" || anchor.text == "{" || anchor.text == "}" ||
             anchor.text == ":" || anchor.text == ">");
        if (!decl_position) continue;
      }
      // Forward: Result needs <...>; then an unqualified name + '('.
      std::size_t j = i + 1;
      if (t.text == "Result") {
        if (j >= code.size() ||
            !(code[j].kind == Tok::punct && code[j].text == "<")) {
          continue;
        }
        int depth = 0;
        for (; j < code.size(); ++j) {
          if (code[j].kind != Tok::punct) continue;
          if (code[j].text == "<") ++depth;
          if (code[j].text == ">" && --depth == 0) break;
        }
        ++j;
      }
      if (j + 1 >= code.size()) continue;
      if (code[j].kind != Tok::ident) continue;
      if (!(code[j + 1].kind == Tok::punct && code[j + 1].text == "(")) {
        continue;
      }
      // Qualified names (out-of-line definitions) restate a declaration
      // that is already checked at class scope; attributes on friend
      // declarations are ill-formed — both exempt.
      if (j + 2 < code.size() && code[j + 1].text == "(" &&
          code[j].text == "operator") {
        continue;
      }
      if (is_friend) continue;
      // Confirm it parses as a function declaration, not a constructor
      // call: after the matching ')' must come a declaration tail.
      std::size_t k = j + 1;
      int pdepth = 0;
      for (; k < code.size(); ++k) {
        if (code[k].kind != Tok::punct) continue;
        if (code[k].text == "(") ++pdepth;
        if (code[k].text == ")" && --pdepth == 0) break;
      }
      if (k + 1 >= code.size()) continue;
      const Token& tail = code[k + 1];
      const bool decl_tail =
          (tail.kind == Tok::punct &&
           (tail.text == ";" || tail.text == "{" || tail.text == "=")) ||
          (tail.kind == Tok::ident &&
           (tail.text == "const" || tail.text == "noexcept" ||
            tail.text == "override" || tail.text == "final"));
      if (!decl_tail) continue;
      if (annotated) continue;
      if (ctx.line_allowed(f.rel_path, "nodiscard", t.line)) continue;
      out.push_back({f.rel_path, t.line, "nodiscard",
                     code[j].text + "() returns " + t.text +
                         " but is not NEST_NODISCARD (src/common/result.h) "
                         "— error returns must not be droppable"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: voidcast — explicit discards are audited, reasoned, and capped.
//
// `(void)expr` is the sanctioned escape from -Werror=unused-result, so
// each one must say *why* the error does not matter (a comment on the
// same line or the line above) and the total across src/ is budgeted: a
// rising count means
// error paths are being waved through instead of handled. Casting a bare
// parameter to void (`(void)len;`) silences an unused *argument*, not an
// error return, and is exempt.
// 49 discards exist today (journal crash-path cleanup, best-effort
// protocol replies, HSM scrub GC — all audited in the PR that added this
// rule); the headroom is deliberately thin so growth stays a conscious,
// reviewed act rather than a drift.
constexpr int kVoidDiscardBudget = 56;

void rule_voidcast(const Context& ctx, std::vector<Finding>& out) {
  int discards = 0;
  for (const auto& f : ctx.files) {
    if (f.subdir.empty()) continue;
    // Comment lines per file, for the same-line reason check.
    std::set<int> comment_lines;
    for (const auto& t : f.toks) {
      if (t.kind == Tok::comment) comment_lines.insert(t.line);
    }
    auto code = code_only(f.toks);
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
      if (!(code[i].kind == Tok::punct && code[i].text == "(")) continue;
      if (!(code[i + 1].kind == Tok::ident && code[i + 1].text == "void")) {
        continue;
      }
      if (!(code[i + 2].kind == Tok::punct && code[i + 2].text == ")")) {
        continue;
      }
      // `foo(void)` parameter list: the token before '(' is a name (or a
      // template close). `(*fp)(void)` and an empty `(void)` argument are
      // caught by the next-token check — a cast is always followed by the
      // expression it discards.
      if (i > 0 && (code[i - 1].kind == Tok::ident ||
                    (code[i - 1].kind == Tok::punct &&
                     code[i - 1].text == ">"))) {
        continue;
      }
      if (code[i + 3].kind == Tok::punct &&
          (code[i + 3].text == ";" || code[i + 3].text == ")" ||
           code[i + 3].text == "," || code[i + 3].text == "{")) {
        continue;
      }
      // Unused-parameter silencing: exactly `(void)name;`.
      if (i + 4 < code.size() && code[i + 3].kind == Tok::ident &&
          code[i + 4].kind == Tok::punct && code[i + 4].text == ";") {
        continue;
      }
      ++discards;
      if (comment_lines.count(code[i].line) == 0 &&
          comment_lines.count(code[i].line - 1) == 0 &&
          !ctx.line_allowed(f.rel_path, "voidcast", code[i].line)) {
        out.push_back({f.rel_path, code[i].line, "voidcast",
                       "(void) discard without a reason — say on this line "
                       "(or the one above) why dropping the result is safe"});
      }
    }
  }
  if (discards > kVoidDiscardBudget) {
    out.push_back({"src", 0, "voidcast",
                   std::to_string(discards) +
                       " (void) discards in src/ exceed the budget of " +
                       std::to_string(kVoidDiscardBudget) +
                       " — handle the error or raise the budget in "
                       "tools/nest-lint/rules.cpp with a rationale"});
  }
}

}  // namespace

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = {
      {"layering", "include DAG between src/ subdirs (no back-edges)",
       rule_layering},
      {"syscalls",
       "blocking syscalls confined to storage/journal/net/hsm; no "
       "process creation",
       rule_syscalls},
      {"lockrank", "lockrank.h ranks match the docs rank table",
       rule_lockrank},
      {"suppress", "NOLINT must name a check; NTSA budget; allow() syntax",
       rule_suppress},
      {"errno", "no statement reads errno twice", rule_errno},
      {"stdlocks", "no naked std lock primitives outside the wrapper",
       rule_stdlocks},
      {"nodiscard", "Errc/Status/Result headers carry NEST_NODISCARD",
       rule_nodiscard},
      {"voidcast", "(void) discards need a reason and fit the budget",
       rule_voidcast},
  };
  return kRules;
}

}  // namespace nestlint
