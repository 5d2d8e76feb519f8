// Small file helpers shared by the checkpoint, signature, and service
// layers: whole-file reads and atomic whole-file writes.
//
// WriteFileAtomic follows the repo's crash-safety convention: write to a
// sibling temp file and rename() it over the destination, so a reader (or a
// process killed mid-write) only ever observes the old bytes or the new
// bytes, never a torn file. The temp file is unique per call
// ("<path>.tmp.XXXXXX", mkstemp), so concurrent writers of one path never
// write into each other's temp file: each rename publishes one writer's
// complete bytes, and the last rename wins.

#ifndef ANDURIL_SRC_UTIL_FILE_H_
#define ANDURIL_SRC_UTIL_FILE_H_

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace anduril {

inline bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

inline bool WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = mkstemp(tmp.data());
  if (fd < 0) {
    return false;
  }
  bool ok = fchmod(fd, 0644) == 0;  // mkstemp creates 0600
  for (size_t done = 0; ok && done < content.size();) {
    const ssize_t n = write(fd, content.data() + done, content.size() - done);
    if (n < 0 && errno != EINTR) {
      ok = false;
    } else if (n > 0) {
      done += static_cast<size_t>(n);
    }
  }
  ok = close(fd) == 0 && ok;
  if (ok && std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_FILE_H_
