#include "audits.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "source_file.h"

namespace corm_tidy {
namespace {

namespace fs = std::filesystem;

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Loads every *.h/*.cc under `dir` (sorted for deterministic reports).
bool LoadTree(const fs::path& dir,
              std::vector<std::unique_ptr<SourceFile>>* out,
              std::string* err) {
  if (!fs::is_directory(dir)) {
    *err = dir.generic_string() + " is not a directory";
    return false;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const auto ext = entry.path().extension();
    if (entry.is_regular_file() && (ext == ".h" || ext == ".cc")) {
      paths.push_back(entry.path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    auto f = std::make_unique<SourceFile>();
    if (!SourceFile::Load(p, f.get(), err)) return false;
    out->push_back(std::move(f));
  }
  return true;
}

// `const char* kName = "site.string";` inside `namespace fault_sites {}`.
// Returns constant name -> site string.
std::map<std::string, std::string> ParseFaultSites(const SourceFile& f) {
  std::map<std::string, std::string> sites;
  const auto& toks = f.tokens();
  size_t i = 0;
  for (; i + 2 < toks.size(); ++i) {
    if (IsIdent(toks[i], "namespace") && IsIdent(toks[i + 1], "fault_sites") &&
        IsPunct(toks[i + 2], "{")) {
      break;
    }
  }
  if (i + 2 >= toks.size()) return sites;
  int depth = 0;
  for (i += 2; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "{")) ++depth;
    if (IsPunct(toks[i], "}") && --depth == 0) break;
    if (toks[i].kind == Token::Kind::kIdent &&
        toks[i].text.rfind("k", 0) == 0 && i + 2 < toks.size() &&
        IsPunct(toks[i + 1], "=") &&
        toks[i + 2].kind == Token::Kind::kString) {
      sites[toks[i].text] = toks[i + 2].text;
    }
  }
  return sites;
}

// Backticked entries inside a `<!-- marker-begin --> ... <!-- marker-end -->`
// block of a markdown file. Returns false when the markers are absent.
bool ParseMarkerBlock(const std::string& text, const std::string& marker,
                      std::set<std::string>* out) {
  const std::string begin = "<!-- " + marker + "-begin -->";
  const std::string end = "<!-- " + marker + "-end -->";
  const size_t b = text.find(begin);
  const size_t e = text.find(end);
  if (b == std::string::npos || e == std::string::npos || e < b) return false;
  size_t i = b + begin.size();
  while (i < e) {
    const size_t open = text.find('`', i);
    if (open == std::string::npos || open >= e) break;
    const size_t close = text.find('`', open + 1);
    if (close == std::string::npos || close >= e) break;
    const std::string entry = text.substr(open + 1, close - open - 1);
    if (!entry.empty()) out->insert(entry);
    i = close + 1;
  }
  return true;
}

}  // namespace

int RunAudits(const std::string& root, std::ostream& os) {
  const fs::path rp(root);
  std::string err;

  std::vector<std::unique_ptr<SourceFile>> src_files;
  std::vector<std::unique_ptr<SourceFile>> test_files;
  if (!LoadTree(rp / "src", &src_files, &err) ||
      !LoadTree(rp / "tests", &test_files, &err)) {
    os << "FATAL: " << err << "\n";
    return 2;
  }

  int failures = 0;
  auto fail = [&](const std::string& msg) {
    ++failures;
    os << "  FAIL " << msg << "\n";
  };

  // --- Fault-site exhaustiveness. -----------------------------------------
  const SourceFile* injector = nullptr;
  for (const auto& f : src_files) {
    if (f->path().size() >= 16 &&
        f->path().compare(f->path().size() - 16, 16, "fault_injector.h") ==
            0) {
      injector = f.get();
      break;
    }
  }
  if (injector == nullptr) {
    os << "FATAL: no fault_injector.h under " << (rp / "src").generic_string()
       << "\n";
    return 2;
  }
  const auto sites = ParseFaultSites(*injector);
  if (sites.empty()) {
    os << "FATAL: no fault_sites constants in " << injector->path() << "\n";
    return 2;
  }

  std::string design;
  if (!ReadFile(rp / "DESIGN.md", &design)) {
    os << "FATAL: cannot read DESIGN.md under " << root << "\n";
    return 2;
  }
  std::set<std::string> table;
  if (!ParseMarkerBlock(design, "fault-site-table", &table)) {
    os << "FATAL: DESIGN.md has no fault-site-table markers\n";
    return 2;
  }

  std::set<std::string> site_strings;
  for (const auto& [cname, site] : sites) {
    site_strings.insert(site);
    // Exercised: a test names the constant or spells the site string.
    bool exercised = false;
    for (const auto& tf : test_files) {
      for (const Token& t : tf->tokens()) {
        if ((t.kind == Token::Kind::kIdent && t.text == cname) ||
            (t.kind == Token::Kind::kString && t.text == site)) {
          exercised = true;
          break;
        }
      }
      if (exercised) break;
    }
    if (!exercised) {
      fail("fault site `" + site + "` (" + cname +
           ") is exercised by no test under tests/");
    }
    if (table.count(site) == 0) {
      fail("fault site `" + site +
           "` is missing from the DESIGN.md fault-site table");
    }
  }
  for (const std::string& entry : table) {
    if (site_strings.count(entry) == 0) {
      fail("DESIGN.md fault-site table lists `" + entry +
           "`, which is not a fault_sites constant");
    }
  }
  if (failures == 0) {
    os << "  OK   fault sites: " << sites.size()
       << " site(s) exercised and documented\n";
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace corm_tidy
