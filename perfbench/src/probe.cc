#include "probe.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using multilog::Result;
using multilog::server::Client;
using multilog::server::Json;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

std::optional<double> Samples::Percentile(double p, size_t min_beyond) const {
  const size_t n = values_.size();
  if (n == 0) return std::nullopt;
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(p / 100.0 * n)), 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::vector<double> copy = values_;
  std::nth_element(copy.begin(), copy.begin() + (rank - 1), copy.end());
  return copy[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log_path, std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The child must not outlive the benchmark, whatever kills it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  // The banner's first line carries the bound port.
  std::string line;
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(give_up -
                                                              Clock::now())
            .count());
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left <= 0 || poll(&pfd, 1, left) <= 0) break;
    char buf[256];
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t at = line.find("127.0.0.1:");
  if (at == std::string::npos) {
    *error = "no banner from " + binary + " (see " + log_path + ")";
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + at + 10));
  return true;
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
}

namespace {

double StatusFieldMb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::atof(line.c_str() + len) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace

double Daemon::PeakRssMb() const { return StatusFieldMb(pid_, "VmHWM:"); }
double Daemon::RssMb() const { return StatusFieldMb(pid_, "VmRSS:"); }

double Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream rest(text.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu cpu;
  unsigned long long ticks = 0;
  for (int i = 0; i < 8 && (in >> ticks); ++i) {
    cpu.total += ticks;
    if (i == 7) cpu.steal = ticks;
  }
  return cpu;
}

Result<Client> Session(uint16_t port, const std::string& level) {
  Result<Client> client = Client::ConnectWithRetry("127.0.0.1", port, 20, 10);
  if (!client.ok()) return client;
  if (Result<Json> hello = client->Hello(level); !hello.ok()) {
    return hello.status();
  }
  return client;
}

Json StatsOf(uint16_t port) {
  Result<Client> client = Client::Connect(port);
  if (!client.ok()) return Json();
  Result<Json> stats = client->Stats();
  if (!stats.ok()) return Json();
  const Json* inner = stats->Find("stats");
  return inner != nullptr ? *inner : Json();
}

int64_t StatInt(const Json& stats, const std::string& path) {
  const Json* node = &stats;
  size_t start = 0;
  while (node != nullptr) {
    const size_t dot = path.find('.', start);
    node = node->Find(path.substr(start, dot - start));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return node != nullptr && node->is_number()
             ? static_cast<int64_t>(node->number_value())
             : 0;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, -1, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

double Tracer::End(int64_t span) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_us = now;
  return s.end_us - s.start_us;
}

void Tracer::Child(int64_t parent, const std::string& name, double offset_us,
                   double dur_us) {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& p = spans_[static_cast<size_t>(parent)];
  const double start = p.start_us + offset_us;
  spans_.push_back(Span{name, start, start + dur_us, parent, p.request});
}

size_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Span& s : spans_) n += s.name == name && s.end_us >= 0;
  return n;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.name == name && s.end_us >= 0) d.push_back(s.end_us - s.start_us);
    }
  }
  if (d.empty()) return 0;
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json j = Json::Object();
    j.Set("id", Json::Int(static_cast<int64_t>(i)));
    j.Set("name", Json::Str(s.name));
    j.Set("start_us", Json::Double(s.start_us));
    j.Set("end_us", Json::Double(s.end_us));
    j.Set("parent", Json::Int(s.parent));
    j.Set("request", Json::Int(s.request));
    out << j.Serialize() << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
