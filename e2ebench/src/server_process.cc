#include "server_process.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace e2e {

namespace {

// Live child pids, so a watchdog or a signal can reap them without locks.
constexpr int kMaxServers = 8;
std::atomic<pid_t> g_live[kMaxServers];

void Register(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The numeric value of `key:` in a /proc status file (0 when absent).
double StatusField(const std::string& status, const std::string& key) {
  const size_t at = status.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + key.size() + 2, nullptr);
}

}  // namespace

bool ReadHostCpu(HostCpu* out) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (auto& x : v) in >> x;
  if (!in || cpu != "cpu") return false;
  // user nice system idle iowait irq softirq steal
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  out->busy_s = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]) / tick;
  out->steal_s = static_cast<double>(v[7]) / tick;
  return true;
}

double StealShare(const HostCpu& from, const HostCpu& to) {
  const double steal = to.steal_s - from.steal_s;
  const double wanted = to.busy_s - from.busy_s + steal;
  return wanted > 0 ? steal / wanted : 0;
}

void KillAllServers() {
  for (auto& slot : g_live) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

ServerProcess::~ServerProcess() { Stop(0.0); }

cf::Status ServerProcess::Start(const std::string& binary,
                                const std::vector<std::string>& args,
                                const std::string& workdir, int threads,
                                double timeout_s) {
  const std::string out_path = workdir + "/server.out";
  const std::string err_path = workdir + "/server.err";
  int in_pipe[2];
  if (::pipe(in_pipe) != 0) return cf::Status::Internal("pipe failed");
  std::vector<std::string> argv_s;
  argv_s.push_back(binary);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The child's environment is built before fork: only async-signal-safe
  // calls run between fork and exec.
  std::vector<std::string> env_s = {"CF_NUM_THREADS=" + std::to_string(threads)};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CF_NUM_THREADS=", 15) != 0) env_s.push_back(*e);
  }
  std::vector<char*> envp;
  for (auto& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return cf::Status::Internal("fork failed");
  if (pid == 0) {
    // Child: never outlive the benchmark, even if it is SIGKILLed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || ::chdir(workdir.c_str()) != 0) ::_exit(127);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pid_ = pid;
  }
  stdin_fd_ = in_pipe[1];
  Register(pid);

  const double deadline = Now() + timeout_s;
  while (Now() < deadline) {
    const std::string banner = ReadFile(out_path);
    const size_t at = banner.find(" on port ");
    if (at != std::string::npos && banner.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + at + 9));
      if (port_ != 0) return cf::Status::Ok();
    }
    if (!Alive()) {
      return cf::Status::Internal("server exited before listening: " +
                                  ReadFile(err_path));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop(0.0);
  return cf::Status::Internal("server did not report a port in time");
}

bool ServerProcess::Alive() {
  std::lock_guard<std::mutex> lock(mu_);
  return AliveLocked();
}

bool ServerProcess::AliveLocked() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == 0) return true;
  Unregister(pid_);
  pid_ = -1;
  return false;
}

void ServerProcess::Stop(double grace_s) {
  if (stdin_fd_ >= 0) {
    if (pid_ > 0 && grace_s > 0) {
      [[maybe_unused]] ssize_t n = ::write(stdin_fd_, "quit\n", 5);
    }
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ <= 0) return;
  const double deadline = Now() + grace_s;
  while (Now() < deadline && AliveLocked()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    Unregister(pid_);
    pid_ = -1;
  }
}

bool ServerProcess::Sample(ProcSample* out) const {
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pid = pid_;
  }
  if (pid <= 0) return false;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(base + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return false;
  // Fields after "(comm)": state is field 3; utime/stime are fields 14/15.
  std::istringstream fields(stat.substr(paren + 2));
  std::string tok;
  unsigned long long utime = 0, stime = 0;
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field == 14) utime = std::strtoull(tok.c_str(), nullptr, 10);
    if (field == 15) stime = std::strtoull(tok.c_str(), nullptr, 10);
  }
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  out->user_s = static_cast<double>(utime) / tick;
  out->sys_s = static_cast<double>(stime) / tick;
  // VmHWM is per process; context switches are per thread, so sum the tasks.
  out->peak_rss_mib = StatusField(ReadFile(base + "/status"), "VmHWM") / 1024.0;
  out->ctx_vol = out->ctx_invol = 0;
  if (DIR* dir = ::opendir((base + "/task").c_str())) {
    while (const struct dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const std::string task =
          ReadFile(base + "/task/" + entry->d_name + "/status");
      out->ctx_vol += static_cast<uint64_t>(
          StatusField(task, "voluntary_ctxt_switches"));
      out->ctx_invol += static_cast<uint64_t>(
          StatusField(task, "nonvoluntary_ctxt_switches"));
    }
    ::closedir(dir);
  }
  return true;
}

}  // namespace e2e
