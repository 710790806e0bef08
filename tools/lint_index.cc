#include "tools/lint_index.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

namespace mbta::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Parses every `mbta-lint: tag(reason)` occurrence inside a comment.
void ParseWaivers(std::string_view comment, int line, LexResult* out) {
  static constexpr std::string_view kMarker = "mbta-lint:";
  std::size_t pos = 0;
  while ((pos = comment.find(kMarker, pos)) != std::string_view::npos) {
    pos += kMarker.size();
    while (pos < comment.size() && comment[pos] == ' ') ++pos;
    std::size_t tag_end = pos;
    while (tag_end < comment.size() &&
           (std::isalnum(static_cast<unsigned char>(comment[tag_end])) ||
            comment[tag_end] == '-')) {
      ++tag_end;
    }
    if (tag_end == pos) continue;
    Waiver w;
    w.tag = std::string(comment.substr(pos, tag_end - pos));
    if (tag_end < comment.size() && comment[tag_end] == '(') {
      const std::size_t close = comment.find(')', tag_end);
      if (close != std::string_view::npos && close > tag_end + 1) {
        w.has_reason = true;
        w.reason = std::string(
            comment.substr(tag_end + 1, close - tag_end - 1));
      }
    }
    out->waivers[line].push_back(std::move(w));
    pos = tag_end;
  }
}

}  // namespace

LexResult Lex(std::string_view src) {
  LexResult out;
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = src.size();

  auto push = [&out](Token::Kind kind, std::string text, int at) {
    out.tokens.push_back(Token{kind, std::move(text), at});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t end = src.find('\n', i);
      const std::size_t stop = end == std::string_view::npos ? n : end;
      ParseWaivers(src.substr(i + 2, stop - i - 2), line, &out);
      i = stop;
      continue;
    }
    // Block comment (may span lines; waivers attach to the line each
    // fragment sits on).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t j = i + 2;
      std::size_t frag = j;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') {
          ParseWaivers(src.substr(frag, j - frag), line, &out);
          ++line;
          frag = j + 1;
        }
        ++j;
      }
      ParseWaivers(src.substr(frag, std::min(j, n) - frag), line, &out);
      i = j + 1 < n ? j + 2 : n;
      continue;
    }
    // Preprocessor directive (only at start of line, but a simple
    // "previous non-blank was a newline" test is enough for this repo).
    if (c == '#') {
      bool at_line_start = true;
      for (std::size_t k = i; k-- > 0;) {
        if (src[k] == '\n') break;
        if (src[k] != ' ' && src[k] != '\t') {
          at_line_start = false;
          break;
        }
      }
      if (at_line_start) {
        const int start_line = line;
        std::string text;
        while (i < n) {
          const std::size_t end = src.find('\n', i);
          const std::size_t stop = end == std::string_view::npos ? n : end;
          std::string_view piece = src.substr(i, stop - i);
          // Strip a trailing line comment from the directive text.
          if (const std::size_t cpos = piece.find("//");
              cpos != std::string_view::npos) {
            ParseWaivers(piece.substr(cpos + 2), line, &out);
            piece = piece.substr(0, cpos);
          }
          const bool continued = !piece.empty() && piece.back() == '\\';
          if (continued) piece.remove_suffix(1);
          text.append(piece);
          i = stop;
          if (stop < n) {
            ++line;
            ++i;
          }
          if (!continued) break;
          text.push_back(' ');
        }
        out.directives.push_back(PpDirective{start_line, std::move(text)});
        continue;
      }
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string close = ")" + delim + "\"";
      const std::size_t end = src.find(close, j);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + close.size();
      const int at = line;
      std::string body(src.substr(
          std::min(j + 1, n),
          end == std::string_view::npos ? 0 : end - j - 1));
      line += static_cast<int>(
          std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                     src.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
      push(Token::Kind::kString, std::move(body), at);
      i = stop;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string body;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) {
          body += src[j];
          body += src[j + 1];
          j += 2;
          continue;
        }
        if (src[j] == '\n') break;  // unterminated; bail at EOL
        body += src[j];
        ++j;
      }
      push(quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
           std::move(body), line);
      i = j < n ? j + 1 : n;
      continue;
    }
    // Identifier.
    if (IsIdentStart(c)) {
      std::size_t j = i + 1;
      while (j < n && IsIdentChar(src[j])) ++j;
      push(Token::Kind::kIdent, std::string(src.substr(i, j - i)), line);
      i = j;
      continue;
    }
    // Number (including 1.5e-3, suffixes; '.' leading handled below).
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(src[i + 1]))) {
      std::size_t j = i;
      while (j < n) {
        const char d = src[j];
        if (IsIdentChar(d) || d == '.') {
          if ((d == 'e' || d == 'E') && j + 1 < n &&
              (src[j + 1] == '+' || src[j + 1] == '-')) {
            j += 2;
            continue;
          }
          ++j;
          continue;
        }
        break;
      }
      push(Token::Kind::kNumber, std::string(src.substr(i, j - i)), line);
      i = j;
      continue;
    }
    // Multi-char operators the rules care about; everything else is a
    // single punctuation char (so >> closing templates stays two '>').
    if (i + 1 < n) {
      const std::string_view two = src.substr(i, 2);
      if (two == "==" || two == "!=" || two == "::" || two == "->") {
        push(Token::Kind::kPunct, std::string(two), line);
        i += 2;
        continue;
      }
    }
    push(Token::Kind::kPunct, std::string(1, c), line);
    ++i;
  }
  return out;
}

bool IsFloatLiteralToken(const Token& t) {
  if (t.kind != Token::Kind::kNumber) return false;
  if (t.text.size() > 1 && (t.text[1] == 'x' || t.text[1] == 'X')) {
    return t.text.find('p') != std::string::npos ||
           t.text.find('P') != std::string::npos;
  }
  return t.text.find('.') != std::string::npos ||
         t.text.find('e') != std::string::npos ||
         t.text.find('E') != std::string::npos;
}

FileScope ClassifyPath(std::string_view path) {
  FileScope scope;
  scope.header = path.size() >= 2 && path.substr(path.size() - 2) == ".h";
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(std::move(cur));
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src") {
      scope.library = true;
      if (i + 1 < parts.size() &&
          parts[i + 1].find('.') == std::string::npos) {
        scope.subsystem = parts[i + 1];
      }
      break;
    }
    if (parts[i] == "tools" || parts[i] == "bench" || parts[i] == "tests" ||
        parts[i] == "examples") {
      break;
    }
  }
  return scope;
}

// ---------------------------------------------------------------------------
// The indexer: one forward scan with a scope stack recovers namespaces,
// classes, and function definitions; a body sub-scan extracts calls.
// ---------------------------------------------------------------------------

namespace {

/// Keywords and builtin type names that can never be a repo-defined
/// callee; filters both `name(...)` calls and `Type var;` ctor-style
/// candidates.
const std::set<std::string>& NonCalleeNames() {
  static const std::set<std::string> kSet = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "decltype", "new",
      "delete",   "throw",    "case",     "do",       "else",
      "goto",     "operator", "static_assert",        "defined",
      "auto",     "const",    "constexpr", "consteval", "constinit",
      "static",   "inline",   "virtual",  "explicit", "extern",
      "mutable",  "typename", "template", "using",    "typedef",
      "void",     "bool",     "char",     "int",      "long",
      "short",    "float",    "double",   "unsigned", "signed",
      "wchar_t",  "char8_t",  "char16_t", "char32_t", "true",
      "false",    "nullptr",  "this",     "noexcept", "override",
      "final",    "public",   "private",  "protected", "friend",
      "class",    "struct",   "enum",     "union",    "namespace",
      "co_await", "co_return", "co_yield", "requires", "concept",
      "assert",
  };
  return kSet;
}

class Indexer {
 public:
  Indexer(std::size_t file_id, FileIndex* out)
      : file_id_(file_id), out_(out), toks_(out->lex.tokens) {}

  void Run() {
    CollectIncludes();
    std::size_t i = 0;
    while (i < Size()) Step(&i);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kOther };
    Kind kind;
    std::string name;
  };

  std::size_t Size() const { return toks_.size(); }
  const Token& Tok(std::size_t i) const { return toks_[i]; }
  bool IsPunct(std::size_t i, std::string_view p) const {
    return i < Size() && Tok(i).kind == Token::Kind::kPunct &&
           Tok(i).text == p;
  }
  bool IsIdent(std::size_t i) const {
    return i < Size() && Tok(i).kind == Token::Kind::kIdent;
  }
  bool IsIdent(std::size_t i, std::string_view name) const {
    return IsIdent(i) && Tok(i).text == name;
  }

  void CollectIncludes() {
    for (const PpDirective& d : out_->lex.directives) {
      const std::size_t inc = d.text.find("include");
      if (inc == std::string::npos) continue;
      const std::size_t open = d.text.find('"', inc);
      if (open == std::string::npos) continue;
      const std::size_t close = d.text.find('"', open + 1);
      if (close == std::string::npos) continue;
      out_->repo_includes.push_back(
          d.text.substr(open + 1, close - open - 1));
    }
  }

  /// Index one past a balanced (...) starting at `i` (pointing at '(').
  std::size_t SkipParens(std::size_t i) const {
    int depth = 0;
    for (; i < Size(); ++i) {
      if (IsPunct(i, "(")) ++depth;
      if (IsPunct(i, ")") && --depth == 0) return i + 1;
    }
    return i;
  }

  /// Index one past a balanced {...} starting at `i` (pointing at '{').
  std::size_t SkipBraces(std::size_t i) const {
    int depth = 0;
    for (; i < Size(); ++i) {
      if (IsPunct(i, "{")) ++depth;
      if (IsPunct(i, "}") && --depth == 0) return i + 1;
    }
    return i;
  }

  /// Index one past a balanced <...> starting at `i` (pointing at '<').
  /// Bails at ';' so stray comparisons cannot derail the scan.
  std::size_t SkipTemplateArgs(std::size_t i) const {
    int depth = 0;
    for (; i < Size(); ++i) {
      if (IsPunct(i, "<")) ++depth;
      if (IsPunct(i, ">") && --depth == 0) return i + 1;
      if (IsPunct(i, ";")) return i;
    }
    return i;
  }

  std::string CurrentClass() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }

  void Step(std::size_t* ip) {
    const std::size_t i = *ip;
    if (IsPunct(i, "}")) {
      if (!stack_.empty()) stack_.pop_back();
      *ip = i + 1;
      return;
    }
    if (IsPunct(i, "{")) {
      stack_.push_back({Scope::kOther, ""});
      *ip = i + 1;
      return;
    }
    if (!IsIdent(i)) {
      *ip = i + 1;
      return;
    }
    const std::string& text = Tok(i).text;

    if (text == "template" && IsPunct(i + 1, "<")) {
      // Skip the parameter list so `template <class T> class Foo` parses
      // the real class head, not the parameter name.
      *ip = SkipTemplateArgs(i + 1);
      return;
    }
    if (text == "namespace") {
      std::size_t j = i + 1;
      while (IsIdent(j) || IsPunct(j, "::")) ++j;
      if (IsPunct(j, "{")) {
        stack_.push_back({Scope::kNamespace, ""});
        *ip = j + 1;
        return;
      }
      *ip = j;  // alias or ill-formed; fall through token by token
      return;
    }
    if ((text == "class" || text == "struct") &&
        !(i > 0 && IsIdent(i - 1, "enum"))) {
      // Find the class name: the first identifier after the keyword that
      // is not an attribute-style macro `NAME(...)`. Then find the body
      // '{' (skipping base clauses) or a ';' forward declaration.
      std::size_t j = i + 1;
      std::string name;
      while (j < Size()) {
        if (IsIdent(j)) {
          if (IsPunct(j + 1, "(")) {  // alignas(64) etc.
            j = SkipParens(j + 1);
            continue;
          }
          name = Tok(j).text;
          ++j;
          continue;
        }
        if (IsPunct(j, "<")) {  // template-id in a specialization
          j = SkipTemplateArgs(j);
          continue;
        }
        break;
      }
      // Scan to '{' (class body) or ';' (fwd decl / variable).
      while (j < Size() && !IsPunct(j, "{") && !IsPunct(j, ";")) {
        if (IsPunct(j, "(")) {
          j = SkipParens(j);
          continue;
        }
        ++j;
      }
      if (IsPunct(j, "{") && !name.empty()) {
        stack_.push_back({Scope::kClass, name});
        *ip = j + 1;
        return;
      }
      *ip = j + 1;
      return;
    }
    if (text == "enum") {
      // `enum [class] Name [: type] { ... };` — the body is not code.
      std::size_t j = i + 1;
      while (j < Size() && !IsPunct(j, "{") && !IsPunct(j, ";")) ++j;
      *ip = IsPunct(j, "{") ? SkipBraces(j) : j + 1;
      return;
    }

    // Function definition / declaration: `[Class ::] name ( ... )` at
    // namespace or class scope.
    const bool at_decl_scope =
        stack_.empty() || stack_.back().kind == Scope::kNamespace ||
        stack_.back().kind == Scope::kClass;
    if (at_decl_scope && IsPunct(i + 1, "(") &&
        NonCalleeNames().count(text) == 0) {
      if (TryFunction(ip)) return;
    }
    *ip = i + 1;
  }

  /// Attempts to parse a function definition or declaration whose name
  /// token is at *ip (already known to be followed by '('). Returns true
  /// and advances *ip past it on success.
  bool TryFunction(std::size_t* ip) {
    const std::size_t name_at = *ip;
    // Qualifier chain directly before the name: `A::B::name` — keep the
    // last component as the class.
    std::string class_name;
    if (name_at >= 2 && IsPunct(name_at - 1, "::") && IsIdent(name_at - 2)) {
      class_name = Tok(name_at - 2).text;
    }
    if (class_name.empty()) class_name = CurrentClass();

    const std::size_t after_params = SkipParens(name_at + 1);
    // Scan the tail between ')' and '{' / ';'.
    std::size_t j = after_params;
    while (j < Size()) {
      if (IsPunct(j, ";")) {  // declaration
        *ip = j + 1;
        return true;
      }
      if (IsPunct(j, "{")) break;  // definition body
      if (IsPunct(j, "}")) return false;  // ran off the scope; not a fn
      if (IsPunct(j, "=")) {
        // `= 0`, `= default`, `= delete`: a declaration; scan to ';'.
        while (j < Size() && !IsPunct(j, ";")) ++j;
        continue;
      }
      if (IsPunct(j, ":")) {
        // Ctor-init list: `: member(expr), member{expr} {`. Step over
        // each initializer group; the next '{' not directly after a
        // member name is the body.
        ++j;
        while (j < Size()) {
          if (IsIdent(j)) {
            ++j;
            if (IsPunct(j, "<")) j = SkipTemplateArgs(j);
            if (IsPunct(j, "(")) {
              j = SkipParens(j);
            } else if (IsPunct(j, "{")) {
              j = SkipBraces(j);
            }
            if (IsPunct(j, ",")) {
              ++j;
              continue;
            }
          }
          break;
        }
        continue;
      }
      if (IsPunct(j, "(")) {
        j = SkipParens(j);  // noexcept(...), attributes
        continue;
      }
      ++j;
    }
    if (!IsPunct(j, "{")) return false;

    FunctionInfo fn;
    fn.name = Tok(name_at).text;
    fn.class_name = class_name;
    fn.qualified =
        class_name.empty() ? fn.name : class_name + "::" + fn.name;
    fn.line = Tok(name_at).line;
    fn.file = file_id_;
    fn.body_begin = j + 1;
    fn.body_end = SkipBraces(j) - 1;  // index of the closing '}'
    ExtractBody(&fn);
    *ip = fn.body_end + 1;
    out_->functions.push_back(std::move(fn));
    return true;
  }

  /// Collects call sites from a body token range.
  void ExtractBody(FunctionInfo* fn) {
    const auto& skip = NonCalleeNames();
    for (std::size_t i = fn->body_begin; i < fn->body_end; ++i) {
      if (!IsIdent(i)) continue;
      const std::string& t = Tok(i).text;
      if (skip.count(t) != 0) continue;

      // Plain or qualified or member call: name(...).
      if (IsPunct(i + 1, "(")) {
        CallSite cs;
        cs.name = t;
        cs.line = Tok(i).line;
        cs.token = i;
        if (i >= 2 && IsPunct(i - 1, "::") && IsIdent(i - 2)) {
          cs.qualifier = Tok(i - 2).text;
        }
        fn->calls.push_back(std::move(cs));
        continue;
      }
      // Ctor-style declaration: `Type var;` / `Type var(...)` /
      // `Type var{...}` / `Type var = ...`. Only the declared-type
      // position counts: the previous token must not be an operand
      // context (member access, '::' qualification handled above).
      if (IsIdent(i + 1) &&
          (IsPunct(i + 2, ";") || IsPunct(i + 2, "(") ||
           IsPunct(i + 2, "{") || IsPunct(i + 2, "=")) &&
          skip.count(Tok(i + 1).text) == 0 &&
          !(i >= 1 && (IsPunct(i - 1, ".") || IsPunct(i - 1, "->")))) {
        CallSite cs;
        cs.name = t;
        cs.ctor_style = true;
        cs.line = Tok(i).line;
        cs.token = i;
        if (i >= 2 && IsPunct(i - 1, "::") && IsIdent(i - 2)) {
          cs.qualifier = Tok(i - 2).text;
        }
        fn->calls.push_back(std::move(cs));
        continue;
      }
    }
  }

  std::size_t file_id_;
  FileIndex* out_;
  const std::vector<Token>& toks_;
  std::vector<Scope> stack_;
};

}  // namespace

RepoIndex BuildRepoIndex(const std::vector<SourceFile>& files) {
  RepoIndex index;
  for (const SourceFile& f : files) {
    FileScope scope = ClassifyPath(f.path);
    if (!scope.library) continue;
    FileIndex fi;
    fi.path = f.path;
    fi.scope = std::move(scope);
    fi.lex = Lex(f.content);
    Indexer(index.files.size(), &fi).Run();
    index.files.push_back(std::move(fi));
  }
  // Deterministic order regardless of input order.
  std::sort(index.files.begin(), index.files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.path < b.path;
            });
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    FileIndex& fi = index.files[fid];
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      FunctionInfo& fn = fi.functions[k];
      fn.file = fid;
      index.functions_by_name[fn.name].emplace_back(fid, k);
    }
  }
  return index;
}

}  // namespace mbta::lint
