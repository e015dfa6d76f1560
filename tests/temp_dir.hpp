// Test and bench helper: a private scratch directory for files a run writes,
// so two runs on one machine never share a path.
#pragma once

#include <stdlib.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace djvm {

/// A fresh directory made with mkdtemp under $TMPDIR (/tmp when unset),
/// named `<prefix>XXXXXX`, and removed with everything in it on
/// destruction.  Throws std::system_error when the directory cannot be made.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix) {
    const char* tmp = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") + "/" +
        prefix + "XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + templ);
    }
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: a leftover directory is harmless
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace djvm
