// easeml_lint: the project determinism & concurrency-discipline linter.
//
// A token-level checker (no compiler front end required — it must run under
// the stock GCC toolchain) that enforces the repo conventions which keep the
// selection traces bit-identical across engine configurations (index on or
// off, WAL, observer) and device counts:
//
//   unordered-container  no std::unordered_{map,set,multimap,multiset} in the
//                        engine/scheduler/shard result paths (src/core,
//                        src/scheduler, src/shard, src/bandit) — iteration
//                        order is implementation-defined and any fold over it
//                        breaks trace parity.
//   raw-rng              no rand/srand/std::random_device/std::mt19937 etc.
//                        outside src/common/rng.{h,cc} — every random draw
//                        must come from the seeded easeml::Rng stream.
//   chrono-seed          no seeding from <chrono> clocks — a time-derived
//                        seed is nondeterminism smuggled past raw-rng.
//   raw-double-accum     no raw `double +=` accumulation inside merge/reduce
//                        seams (functions named *Merge*/*Reduce*/*Combine*)
//                        outside common/exact_sum — floating addition is not
//                        associative, so a raw running sum depends on the
//                        shard partition; use ExactDoubleSum.
//   raw-sync             no std::mutex/condition_variable/lock_guard/...
//                        outside common/thread_annotations.h — all locking
//                        goes through the annotated easeml::Mutex wrapper so
//                        Clang Thread Safety Analysis sees every acquisition.
//   unguarded-mutex      a class that declares a Mutex/SpinLock member must
//                        annotate at least one field with EASEML_GUARDED_BY /
//                        EASEML_PT_GUARDED_BY — a lock that guards nothing
//                        the analysis can check is a lock the analysis
//                        cannot help with.
//   raw-clock            no raw clock reads (clock_gettime/gettimeofday or
//                        the <chrono> clocks) outside common/ — all timing
//                        goes through the common/clock.h seam
//                        (easeml::MonotonicSeconds/ThreadCpuSeconds) so the
//                        clock choice, and any future virtualization for
//                        deterministic replay, lives in one place.
//   raw-file-io          no direct fopen/open/write/fsync/... calls outside
//                        src/wal/ — durable state goes through the
//                        wal::FileSystem seam so the fault-injection harness
//                        can interpose on every byte that claims to be
//                        durable.
//
// Suppression (machine-readable, reason required):
//   code;  // easeml-lint: allow(rule-id) why this one is safe
// or on its own line, suppressing the next line:
//   // easeml-lint: allow(rule-id) why this one is safe
//   code;
// A directive with no reason (or an unknown rule id) is itself reported as
// [bad-suppression] and is not suppressible.
//
// Output: one `file:line: [rule-id] message` per finding, sorted by file
// then line. Exit status: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#if defined(__has_include)
#if __has_include(<filesystem>)
#include <filesystem>
#define EASEML_LINT_HAS_FS 1
#endif
#endif

namespace easeml::lint {

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

struct Suppression {
  int line = 0;
  std::string rule;
  bool own_line = false;  // directive-only line: applies to the next line
  bool has_reason = false;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"unordered-container",
     "unordered containers in engine/scheduler/shard/bandit paths "
     "(iteration order breaks trace parity)"},
    {"raw-rng",
     "raw RNG primitives outside common/rng (every draw must come from the "
     "seeded easeml::Rng stream)"},
    {"chrono-seed",
     "seeding from <chrono> clocks (time-derived seeds are hidden "
     "nondeterminism)"},
    {"raw-double-accum",
     "raw double += in merge/reduce seams outside common/exact_sum "
     "(non-associative; use ExactDoubleSum)"},
    {"raw-sync",
     "std sync primitives outside common/thread_annotations.h (locking must "
     "go through the annotated easeml::Mutex)"},
    {"unguarded-mutex",
     "class declares a Mutex/SpinLock member but annotates no field with "
     "EASEML_GUARDED_BY"},
    {"raw-clock",
     "raw clock reads outside common/ (read time through the "
     "common/clock.h seam: easeml::MonotonicSeconds/ThreadCpuSeconds)"},
    {"raw-file-io",
     "direct file I/O calls (fopen/open/write/fsync/...) outside src/wal/ "
     "(durable bytes must flow through the wal::FileSystem seam)"},
    {"bad-suppression",
     "easeml-lint:allow directive without a reason or with an unknown rule "
     "id"},
};

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Source preparation: comment/string/char-literal stripping (preserving line
// structure), suppression-directive collection, preprocessor-line removal.
// ---------------------------------------------------------------------------

// Scans one physical line's comment text for a suppression directive.
void CollectDirective(const std::string& comment, int line, bool own_line,
                      std::vector<Suppression>& out) {
  const std::string marker = "easeml-lint:";
  size_t at = comment.find(marker);
  if (at == std::string::npos) return;
  size_t p = at + marker.size();
  while (p < comment.size() && std::isspace(static_cast<unsigned char>(comment[p]))) ++p;
  const std::string allow = "allow(";
  if (comment.compare(p, allow.size(), allow) != 0) return;
  p += allow.size();
  size_t close = comment.find(')', p);
  if (close == std::string::npos) return;
  Suppression s;
  s.line = line;
  s.rule = comment.substr(p, close - p);
  s.own_line = own_line;
  std::string reason = comment.substr(close + 1);
  for (char c : reason) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      s.has_reason = true;
      break;
    }
  }
  out.push_back(s);
}

// Replaces comments, string literals, and char literals with spaces (line
// breaks preserved) so tokenization never sees their contents; collects
// suppression directives from // comments along the way.
std::string StripAndCollect(const std::string& src,
                            std::vector<Suppression>& directives) {
  std::string out;
  out.reserve(src.size());
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  // Tracks whether any real code appeared on the current line (for own-line
  // directive detection).
  bool code_on_line = false;
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      out.push_back('\n');
      ++line;
      ++i;
      code_on_line = false;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      CollectDirective(src.substr(i + 2, end - i - 2), line, !code_on_line,
                       directives);
      for (size_t k = i; k < end; ++k) out.push_back(' ');
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) end = n; else end += 2;
      for (size_t k = i; k < end; ++k) {
        if (src[k] == '\n') {
          out.push_back('\n');
          ++line;
        } else {
          out.push_back(' ');
        }
      }
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.push_back(' ');
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          out.push_back(' ');
          out.push_back(' ');
          i += 2;
          continue;
        }
        if (src[i] == '\n') {  // unterminated; bail at line end
          break;
        }
        out.push_back(' ');
        ++i;
      }
      if (i < n && src[i] == quote) {
        out.push_back(' ');
        ++i;
      }
      code_on_line = true;
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) code_on_line = true;
    out.push_back(c);
    ++i;
  }
  return out;
}

// Blanks preprocessor lines (directive text is not subject to the token
// rules; the identifiers reappear at every use site anyway).
void BlankPreprocessorLines(std::string& code) {
  size_t i = 0;
  const size_t n = code.size();
  while (i < n) {
    size_t bol = i;
    while (i < n && code[i] != '\n') ++i;
    size_t first = bol;
    while (first < i && std::isspace(static_cast<unsigned char>(code[first])))
      ++first;
    if (first < i && code[first] == '#') {
      for (size_t k = bol; k < i; ++k) code[k] = ' ';
    }
    if (i < n) ++i;  // skip newline
  }
}

std::vector<Token> Tokenize(const std::string& code) {
  std::vector<Token> tokens;
  int line = 1;
  size_t i = 0;
  const size_t n = code.size();
  while (i < n) {
    char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.line = line;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(code[i])) ||
                       code[i] == '_'))
        ++i;
      t.text = code.substr(start, i - start);
      t.is_ident = true;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(code[i])) ||
                       code[i] == '.' || code[i] == '\''))
        ++i;
      t.text = code.substr(start, i - start);
    } else {
      // Multi-char punctuators the rules care about; everything else is
      // emitted one char at a time.
      if (i + 1 < n) {
        const std::string two = code.substr(i, 2);
        if (two == "::" || two == "+=" || two == "-=" || two == "->" ||
            two == "==" || two == "<=" || two == ">=" || two == "&&" ||
            two == "||" || two == "<<" || two == ">>") {
          t.text = two;
          i += 2;
          tokens.push_back(t);
          continue;
        }
      }
      t.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(t);
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Path helpers (lexical; the tool never needs to resolve symlinks).
// ---------------------------------------------------------------------------

std::string Normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool PathContains(const std::string& path, const std::string& piece) {
  return Normalize(path).find(piece) != std::string::npos;
}

bool InEngineDirs(const std::string& path) {
  return PathContains(path, "src/core/") || PathContains(path, "src/scheduler/") ||
         PathContains(path, "src/shard/") || PathContains(path, "src/bandit/");
}

bool IsRngHome(const std::string& path) {
  return PathContains(path, "common/rng.h") || PathContains(path, "common/rng.cc");
}

bool IsExactSumHome(const std::string& path) {
  return PathContains(path, "common/exact_sum.h") ||
         PathContains(path, "common/exact_sum.cc");
}

bool IsAnnotationsHome(const std::string& path) {
  return PathContains(path, "common/thread_annotations.h");
}

// The raw-clock rule exempts all of common/ (clock.h is the seam itself, and
// the wrapper layer is the one place allowed to talk to the OS clocks).
bool InCommonDir(const std::string& path) {
  return PathContains(path, "common/");
}

// The raw-file-io rule exempts all of src/wal/ (file.cc IS the seam — the
// one translation unit allowed to issue POSIX file calls).
bool InWalDir(const std::string& path) {
  return PathContains(path, "wal/");
}

// ---------------------------------------------------------------------------
// The checker.
// ---------------------------------------------------------------------------

const std::set<std::string>& UnorderedContainers() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

const std::set<std::string>& RawRngIdents() {
  static const std::set<std::string> kSet = {
      "rand",         "srand",          "random_device",
      "mt19937",      "mt19937_64",     "minstd_rand",
      "minstd_rand0", "default_random_engine"};
  return kSet;
}

const std::set<std::string>& RawClockIdents() {
  static const std::set<std::string> kSet = {
      "clock_gettime", "gettimeofday", "steady_clock", "system_clock",
      "high_resolution_clock"};
  return kSet;
}

const std::set<std::string>& RawFileIoIdents() {
  static const std::set<std::string> kSet = {
      "fopen",  "fdopen", "freopen",   "open",  "openat",
      "creat",  "write",  "pwrite",    "writev", "fwrite",
      "fsync",  "fdatasync", "ftruncate"};
  return kSet;
}

const std::set<std::string>& RawSyncIdents() {
  static const std::set<std::string> kSet = {
      "mutex",         "timed_mutex",       "recursive_mutex",
      "shared_mutex",  "condition_variable", "condition_variable_any",
      "lock_guard",    "unique_lock",       "scoped_lock",
      "shared_lock"};
  return kSet;
}

bool LooksLikeMergeName(const std::string& ident) {
  return ident.find("Merge") != std::string::npos ||
         ident.find("Reduce") != std::string::npos ||
         ident.find("Combine") != std::string::npos;
}

// Pass 1 over every file: names ever declared with a floating-point type.
// The table is global (and name-based) on purpose: a merge seam usually
// receives its accumulator as a parameter or struct field declared
// elsewhere, and a rare same-name integer costs at most one suppression.
void CollectDoubleIdents(const std::vector<Token>& tokens,
                         std::set<std::string>& out) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (t != "double" && t != "float") continue;
    size_t j = i + 1;
    while (j < tokens.size() &&
           (tokens[j].text == "*" || tokens[j].text == "&" ||
            tokens[j].text == "const"))
      ++j;
    if (j < tokens.size() && tokens[j].is_ident) out.insert(tokens[j].text);
  }
}

struct ClassScope {
  int brace_depth = 0;  // depth of the scope's opening brace
  int line = 0;
  std::string name;
  bool has_mutex_member = false;
  bool has_guard = false;
};

void CheckFile(const std::string& path, const std::vector<Token>& tokens,
               const std::set<std::string>& double_idents,
               std::vector<Finding>& findings) {
  const bool engine_dir = InEngineDirs(path);
  const bool rng_home = IsRngHome(path);
  const bool exact_sum_home = IsExactSumHome(path);
  const bool annotations_home = IsAnnotationsHome(path);
  const bool common_dir = InCommonDir(path);

  int brace_depth = 0;
  int paren_depth = 0;

  // raw-double-accum context tracking.
  std::vector<int> merge_brace_starts;    // merge-named function/lambda bodies
  bool pending_merge = false;             // saw a merge-named ident; waiting
                                          // for its body's opening brace

  // unguarded-mutex scope tracking.
  std::vector<ClassScope> class_stack;
  bool pending_class = false;
  std::string pending_class_name;
  int pending_class_line = 0;

  auto add = [&](int line, const std::string& rule, const std::string& msg) {
    findings.push_back(Finding{path, line, rule, msg});
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    const std::string& t = tok.text;

    // --- structural bookkeeping -----------------------------------------
    if (t == "(") {
      ++paren_depth;
    } else if (t == ")") {
      --paren_depth;
    } else if (t == "{") {
      ++brace_depth;
      if (pending_merge) {
        merge_brace_starts.push_back(brace_depth);
        pending_merge = false;
      }
      if (pending_class) {
        ClassScope scope;
        scope.brace_depth = brace_depth;
        scope.line = pending_class_line;
        scope.name = pending_class_name;
        class_stack.push_back(scope);
        pending_class = false;
      }
    } else if (t == "}") {
      if (!merge_brace_starts.empty() &&
          merge_brace_starts.back() == brace_depth) {
        merge_brace_starts.pop_back();
      }
      if (!class_stack.empty() && class_stack.back().brace_depth == brace_depth) {
        const ClassScope& scope = class_stack.back();
        if (scope.has_mutex_member && !scope.has_guard && !annotations_home) {
          add(scope.line, "unguarded-mutex",
              "class '" + scope.name +
                  "' declares a Mutex/SpinLock member but annotates no "
                  "field with "
                  "EASEML_GUARDED_BY / EASEML_PT_GUARDED_BY");
        }
        class_stack.pop_back();
      }
      --brace_depth;
    } else if (t == ";" && paren_depth == 0) {
      pending_merge = false;   // was a declaration, not a definition
      pending_class = false;   // forward declaration
    }

    if (!tok.is_ident) continue;

    // --- scope openers ---------------------------------------------------
    if (t == "class" || t == "struct") {
      const bool is_enum_class =
          i > 0 && tokens[i - 1].is_ident && tokens[i - 1].text == "enum";
      if (!is_enum_class && i + 1 < tokens.size() && tokens[i + 1].is_ident) {
        pending_class = true;
        pending_class_name = tokens[i + 1].text;
        pending_class_line = tok.line;
      }
      continue;
    }
    if (LooksLikeMergeName(t)) pending_merge = true;

    // --- unordered-container --------------------------------------------
    if (engine_dir && UnorderedContainers().count(t) != 0) {
      add(tok.line, "unordered-container",
          "'" + t +
              "' in an engine result path: iteration order is "
              "implementation-defined and breaks cross-shard trace parity; "
              "use std::map/std::set or a sorted vector");
    }

    // --- raw-rng ----------------------------------------------------------
    if (!rng_home && RawRngIdents().count(t) != 0) {
      add(tok.line, "raw-rng",
          "'" + t +
              "' outside common/rng: every random draw must come from the "
              "seeded easeml::Rng stream");
    }

    // --- chrono-seed ------------------------------------------------------
    if (t == "chrono") {
      // Nondeterministic seeding pairs a clock read with a seed sink on the
      // same statement/line; flag the pairing, not every clock read. Scan
      // the whole line (the sink usually precedes the clock read, as in
      // `rng.Seed(std::chrono::...)`), firing once per line.
      size_t first = i;
      while (first > 0 && tokens[first - 1].line == tok.line) --first;
      bool first_chrono_on_line = true;
      for (size_t j = first; j < i; ++j) {
        if (tokens[j].is_ident && tokens[j].text == "chrono") {
          first_chrono_on_line = false;
          break;
        }
      }
      for (size_t j = first;
           first_chrono_on_line && j < tokens.size() &&
           tokens[j].line == tok.line;
           ++j) {
        if (!tokens[j].is_ident) continue;
        std::string lower = tokens[j].text;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        if (lower.find("seed") != std::string::npos) {
          add(tok.line, "chrono-seed",
              "seeding from a <chrono> clock: time-derived seeds make runs "
              "unreproducible; thread the campaign seed through "
              "easeml::Rng");
          break;
        }
      }
    }

    // --- raw-double-accum -------------------------------------------------
    if (!exact_sum_home && i + 1 < tokens.size() &&
        tokens[i + 1].text == "+=" && double_idents.count(t) != 0) {
      if (!merge_brace_starts.empty()) {
        add(tok.line, "raw-double-accum",
            "raw 'double " + t +
                " +=' in a merge/reduce seam: floating addition is not "
                "associative, so the result depends on the shard partition; "
                "accumulate through ExactDoubleSum");
      }
    }

    // --- raw-clock --------------------------------------------------------
    if (!common_dir && RawClockIdents().count(t) != 0) {
      add(tok.line, "raw-clock",
          "'" + t +
              "' outside common/: read time through "
              "easeml::MonotonicSeconds()/ThreadCpuSeconds() (common/clock.h) "
              "so every clock read shares one virtualizable seam");
    }

    // --- raw-file-io ------------------------------------------------------
    // Call shape only: `ident(` neither preceded by `.`/`->` (member
    // functions that happen to share a libc name — an fstream's .open() —
    // are a different seam question) nor by a type token (a declaration
    // like `void write(...)` moves no bytes). `return`, though an
    // identifier token, introduces a call.
    if (RawFileIoIdents().count(t) != 0 && !InWalDir(path) &&
        i + 1 < tokens.size() && tokens[i + 1].text == "(") {
      const bool decl_or_member =
          i > 0 && ((tokens[i - 1].is_ident && tokens[i - 1].text != "return") ||
                    tokens[i - 1].text == "*" || tokens[i - 1].text == "&" ||
                    tokens[i - 1].text == "." || tokens[i - 1].text == "->");
      if (!decl_or_member) {
        add(tok.line, "raw-file-io",
            "'" + t +
                "' outside src/wal/: durable bytes must flow through the "
                "wal::FileSystem seam (src/wal/file.h) so fault injection "
                "can interpose on every write and fsync");
      }
    }

    // --- raw-sync ---------------------------------------------------------
    if (!annotations_home && t == "std" && i + 2 < tokens.size() &&
        tokens[i + 1].text == "::" && RawSyncIdents().count(tokens[i + 2].text) != 0) {
      add(tok.line, "raw-sync",
          "'std::" + tokens[i + 2].text +
              "' outside common/thread_annotations.h: use the annotated "
              "easeml::Mutex/MutexLock/CondVar so Clang Thread Safety "
              "Analysis sees the acquisition");
    }

    // --- unguarded-mutex member / guard detection ------------------------
    if (!class_stack.empty()) {
      if (t == "EASEML_GUARDED_BY" || t == "EASEML_PT_GUARDED_BY") {
        class_stack.back().has_guard = true;
      } else if (t == "Mutex" || t == "SpinLock") {
        // SpinLock carries the same capability as Mutex and must follow
        // the same guarded-field discipline.
        size_t j = i + 1;
        while (j < tokens.size() &&
               (tokens[j].text == "*" || tokens[j].text == "&"))
          ++j;
        if (j < tokens.size() && tokens[j].is_ident && tokens[j].text != t) {
          class_stack.back().has_mutex_member = true;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression application.
// ---------------------------------------------------------------------------

void ApplySuppressions(const std::string& path,
                       const std::vector<Suppression>& directives,
                       std::vector<Finding>& findings,
                       std::vector<Finding>& out) {
  for (const Suppression& s : directives) {
    if (!s.has_reason || !IsKnownRule(s.rule)) {
      std::string why = !s.has_reason
                            ? "suppression without a reason"
                            : "suppression names unknown rule '" + s.rule + "'";
      out.push_back(Finding{
          path, s.line, "bad-suppression",
          why + "; write `// easeml-lint: allow(<rule-id>) <reason>`"});
    }
  }
  for (Finding& f : findings) {
    bool suppressed = false;
    for (const Suppression& s : directives) {
      if (s.rule != f.rule || !s.has_reason) continue;
      if (s.line == f.line || (s.own_line && s.line + 1 == f.line)) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool HasLintableExtension(const std::string& path) {
  for (const char* ext : {".h", ".hpp", ".cc", ".cpp"}) {
    const std::string e = ext;
    if (path.size() > e.size() &&
        path.compare(path.size() - e.size(), e.size(), e) == 0) {
      return true;
    }
  }
  return false;
}

int CollectFiles(const std::string& root, std::vector<std::string>& files) {
#ifdef EASEML_LINT_HAS_FS
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (fs::recursive_directory_iterator it(root, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (it->is_regular_file(ec) &&
          HasLintableExtension(it->path().string())) {
        files.push_back(Normalize(it->path().string()));
      }
    }
    return 0;
  }
  if (fs::is_regular_file(root, ec)) {
    files.push_back(Normalize(root));
    return 0;
  }
  std::cerr << "easeml_lint: no such file or directory: " << root << "\n";
  return 2;
#else
  files.push_back(Normalize(root));
  return 0;
#endif
}

void PrintHelp() {
  std::cout << "usage: easeml_lint [--help] <file-or-dir>...\n\n"
            << "Token-level determinism & concurrency-discipline linter for "
               "the easeml tree.\n\n"
            << "Rules:\n";
  for (const RuleInfo& r : kRules) {
    std::cout << "  " << r.id << "\n      " << r.summary << "\n";
  }
  std::cout
      << "\nSuppression (reason required):\n"
      << "  code;  // easeml-lint: allow(rule-id) reason\n"
      << "  // easeml-lint: allow(rule-id) reason   <- suppresses next line\n"
      << "\nExit status: 0 clean, 1 findings, 2 usage/IO error.\n";
}

int Run(int argc, char** argv) {
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "easeml_lint: unknown option: " << arg << "\n";
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    std::cerr << "easeml_lint: no inputs (try --help)\n";
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const int rc = CollectFiles(root, files);
    if (rc != 0) return rc;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: read + tokenize every file, build the global double-name table.
  struct Prepared {
    std::string path;
    std::vector<Token> tokens;
    std::vector<Suppression> directives;
  };
  std::vector<Prepared> prepared;
  std::set<std::string> double_idents;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "easeml_lint: cannot read: " << path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Prepared p;
    p.path = path;
    std::string code = StripAndCollect(buf.str(), p.directives);
    BlankPreprocessorLines(code);
    p.tokens = Tokenize(code);
    CollectDoubleIdents(p.tokens, double_idents);
    prepared.push_back(std::move(p));
  }

  // Pass 2: rule checks + suppression application.
  std::vector<Finding> findings;
  for (const Prepared& p : prepared) {
    std::vector<Finding> raw;
    CheckFile(p.path, p.tokens, double_idents, raw);
    ApplySuppressions(p.path, p.directives, raw, findings);
  }

  std::sort(findings.begin(), findings.end());
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cerr << "easeml_lint: " << findings.size() << " finding(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace easeml::lint

int main(int argc, char** argv) { return easeml::lint::Run(argc, argv); }
