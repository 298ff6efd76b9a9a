#include "proc_stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

double TimevalMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) * 1e-3;
}

std::string ProcPath(pid_t pid, const char* file) {
  return pid == 0 ? std::string("/proc/self/") + file
                  : "/proc/" + std::to_string(pid) + "/" + file;
}

/// Value of a "Key:   123 kB" line of /proc/<pid>/status; false if absent.
bool StatusField(pid_t pid, const std::string& key, std::uint64_t* out) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      *out = std::stoull(line.substr(key.size() + 1));
      return true;
    }
  }
  return false;
}

}  // namespace

CpuSample SelfCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuSample s;
  s.user_ms = TimevalMs(ru.ru_utime);
  s.sys_ms = TimevalMs(ru.ru_stime);
  s.voluntary_ctx = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.involuntary_ctx = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return s;
}

bool PidCpu(pid_t pid, CpuSample* out) {
  std::ifstream in(ProcPath(pid, "stat"));
  std::string stat;
  if (!std::getline(in, stat)) return false;
  // The command name may hold spaces; the fields after it start at state
  // (field 3), so utime (14) and stime (15) are the 12th and 13th tokens.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(stat.substr(close + 1));
  std::vector<std::string> tok;
  std::string t;
  while (rest >> t) tok.push_back(t);
  if (tok.size() < 13) return false;
  const double tick_ms = 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  out->user_ms = static_cast<double>(std::stoull(tok[11])) * tick_ms;
  out->sys_ms = static_cast<double>(std::stoull(tok[12])) * tick_ms;
  return StatusField(pid, "voluntary_ctxt_switches", &out->voluntary_ctx) &&
         StatusField(pid, "nonvoluntary_ctxt_switches",
                     &out->involuntary_ctx);
}

double PeakRssMb(pid_t pid) {
  std::uint64_t kb = 0;
  if (!StatusField(pid, "VmHWM", &kb)) return 0.0;
  return static_cast<double>(kb) / 1024.0;
}

MachineTicks ReadMachineTicks() {
  MachineTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": the all-CPU line
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace perfbench
