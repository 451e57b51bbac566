// Self-exec for aropuf_shard, the one tool that fans work out to copies of
// itself: it starts its local fleet workers this way.  POSIX only;
// AROPUF_HAVE_FORK is defined where these helpers exist.
#pragma once

#if !defined(_WIN32)
#define AROPUF_HAVE_FORK 1

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace aropuf::tools {

/// The path this binary can be re-exec'd from (argv[0] when /proc is absent).
inline std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// Forks and execs `args` (args[0] is the executable).  Returns the child's
/// pid, or -1 with a message on stderr prefixed by `tool`; a failed exec
/// exits the child with status 127.
inline long spawn_process(const char* tool, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "%s: fork failed: %s\n", tool, std::strerror(errno));
    return -1;
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "%s: exec %s failed: %s\n", tool, argv[0], std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

}  // namespace aropuf::tools

#endif  // !_WIN32
