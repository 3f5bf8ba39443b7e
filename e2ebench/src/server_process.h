#ifndef CF_E2E_SERVER_PROCESS_H_
#define CF_E2E_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// The served binary as a child process: spawn `serve_cli serve --port 0`,
/// learn its port from its banner, read its resource counters from /proc,
/// and reap it on every exit path (stdin "quit" first, SIGKILL when it does
/// not exit in time).

namespace e2e {

namespace cf = causalformer;

/// Cumulative resource counters of one process, read from /proc/<pid>.
struct ProcSample {
  double user_s = 0;          ///< utime
  double sys_s = 0;           ///< stime
  uint64_t ctx_vol = 0;       ///< voluntary_ctxt_switches
  uint64_t ctx_invol = 0;     ///< nonvoluntary_ctxt_switches
  double peak_rss_mib = 0;    ///< VmHWM
};

/// Whole-host CPU time from the first line of /proc/stat, in seconds summed
/// over CPUs: time spent running (user, nice, system, irq, softirq) and time
/// the hypervisor ran something else while a vCPU wanted to run (steal).
struct HostCpu {
  double busy_s = 0;
  double steal_s = 0;
};

/// Reads HostCpu; false when /proc/stat is unreadable.
bool ReadHostCpu(HostCpu* out);

/// Share of the wanted CPU time between two readings that was stolen.
double StealShare(const HostCpu& from, const HostCpu& to);

class ServerProcess {
 public:
  ServerProcess() = default;
  /// Reaps the child if it still runs.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary args...` in `workdir` with CF_NUM_THREADS=`threads`,
  /// stdout/stderr captured to files there, and waits up to `timeout_s` for
  /// the "on port N" banner.
  cf::Status Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& workdir, int threads, double timeout_s);

  /// Asks the server to exit through stdin, then SIGKILLs it after
  /// `grace_s`; always waits for the child. Idempotent.
  void Stop(double grace_s = 5.0);

  /// True while the child has not exited (reaps it when it has). Safe to
  /// call from several threads, like Sample().
  bool Alive();

  /// Current /proc counters; false when the process is gone.
  bool Sample(ProcSample* out) const;

  uint16_t port() const { return port_; }

 private:
  bool AliveLocked();

  mutable std::mutex mu_;  // guards pid_
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  uint16_t port_ = 0;
};

/// Kills every live ServerProcess (for the watchdog and signal paths).
void KillAllServers();

}  // namespace e2e

#endif  // CF_E2E_SERVER_PROCESS_H_
