#include "harness/served.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

constexpr std::size_t kMaxResponseBytes = 1 << 16;

}  // namespace

std::unique_ptr<ServedProcess> ServedProcess::Start(const std::string& binary,
                                                    int jobs, int reactors,
                                                    std::string* error) {
  // Everything the child needs is built before fork: between fork and exec
  // only async-signal-safe calls are allowed.
  const std::string jobs_arg = std::to_string(jobs);
  const std::string reactors_arg = std::to_string(reactors);
  std::vector<const char*> argv = {binary.c_str(), "--listen", "127.0.0.1:0",
                                   "--jobs",       jobs_arg.c_str(),
                                   "--reactors",   reactors_arg.c_str(),
                                   nullptr};
  int err_pipe[2];
  if (::pipe(err_pipe) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive carat_bench, even if carat_bench is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(err_pipe[1], 2);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, 1);
    ::close(err_pipe[0]);
    ::execv(argv[0], const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  ::close(err_pipe[1]);
  std::unique_ptr<ServedProcess> proc(new ServedProcess(pid, err_pipe[0]));

  // Read stderr until the listening line names the port.
  std::string text;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    const std::size_t at = text.find("listening on ");
    const std::size_t eol =
        at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = text.rfind(':', text.find(' ', at + 13));
      proc->port_ = static_cast<std::uint16_t>(
          std::strtoul(text.c_str() + colon + 1, nullptr, 10));
      if (proc->port_ == 0) break;
      return proc;
    }
    pollfd pfd{proc->err_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 200) < 0 && errno != EINTR) break;
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) continue;
    char buf[512];
    const ssize_t n = ::read(proc->err_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  *error = "carat_served did not report its port: " + text;
  return nullptr;
}

ServedProcess::~ServedProcess() { Stop(); }

double ServedProcess::PeakRssMb() const {
  return perfbench::PeakRssMb("/proc/" + std::to_string(pid_) + "/status");
}

double PeakRssMb(const std::string& status_path) {
  std::FILE* f = std::fopen(status_path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

bool ServedProcess::Stop() {
  if (pid_ <= 0) return exited_ok_;
  ::kill(pid_, SIGTERM);
  int status = 0;
  pid_t done = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(15);
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  exited_ok_ = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  pid_ = -1;
  ::close(err_fd_);
  err_fd_ = -1;
  return exited_ok_;
}

Connection::Connection()
    : framing_(carat::rpc::Framing::Create(carat::rpc::FramingKind::kText)) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Connect(std::uint16_t port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = "socket failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect failed: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Connection::Send(const std::string& id, const std::string& body) {
  std::string wire;
  framing_->Encode(id, body, &wire);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::ReadAvailable(
    std::vector<carat::rpc::Framing::Message>* out, std::string* error) {
  char buf[16384];
  ssize_t n;
  do {
    n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n == 0) {
    *error = "server closed the connection";
    return false;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    *error = std::string("recv failed: ") + std::strerror(errno);
    return false;
  }
  in_.append(buf, static_cast<std::size_t>(n));
  return framing_->Decode(&in_, kMaxResponseBytes, out, error);
}

bool Connection::Call(const std::string& id, const std::string& body,
                      std::string* response, int timeout_ms) {
  if (!Send(id, body)) return false;
  std::vector<carat::rpc::Framing::Message> messages;
  std::string error;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (messages.empty() && Clock::now() < deadline) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 50) < 0 && errno != EINTR) return false;
    if (!ReadAvailable(&messages, &error)) return false;
  }
  if (messages.empty() || messages.front().id != id) return false;
  *response = messages.front().body;
  return true;
}

std::map<std::string, double> FetchStats(Connection* conn) {
  std::map<std::string, double> stats;
  std::string body;
  if (!conn->Call("stats", "STATS", &body)) return stats;
  std::istringstream in(body);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    stats[token.substr(0, eq)] = std::atof(token.c_str() + eq + 1);
  }
  return stats;
}

LoopStats ClosedLoop(
    std::vector<Connection*> conns, double seconds, std::uint64_t limit,
    const std::function<std::string(std::uint64_t)>& next,
    const std::function<void(std::uint64_t, const std::string&,
                             const std::string&, double)>& on_response,
    Tracer* tracer) {
  struct InFlight {
    std::uint64_t index = 0;
    std::string id;
    Clock::time_point sent;
    bool busy = false;
  };
  LoopStats stats;
  std::vector<InFlight> slots(conns.size());
  std::vector<pollfd> pfds(conns.size());
  std::vector<carat::rpc::Framing::Message> messages;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + std::chrono::duration_cast<
      Clock::duration>(std::chrono::duration<double>(seconds));

  const auto send_next = [&](std::size_t c) {
    InFlight& slot = slots[c];
    slot.index = stats.sent++;
    slot.id = std::to_string(slot.index);
    slot.sent = Clock::now();
    slot.busy = conns[c]->Send(slot.id, next(slot.index));
    if (!slot.busy) stats.io_error = "send failed";
  };
  const auto more = [&] { return limit == 0 || stats.sent < limit; };
  std::size_t busy = 0;
  for (std::size_t c = 0; c < conns.size() && more(); ++c, ++busy) {
    send_next(c);
  }

  while (busy > 0 && stats.io_error.empty()) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = pollfd{conns[c]->fd(), slots[c].busy ? short{POLLIN} : short{0},
                       0};
    }
    if (::poll(pfds.data(), pfds.size(), 10'000) <= 0) {
      if (errno == EINTR) continue;
      stats.io_error = "no response within 10 s";
      break;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      messages.clear();
      if (!conns[c]->ReadAvailable(&messages, &stats.io_error)) break;
      for (const carat::rpc::Framing::Message& msg : messages) {
        InFlight& slot = slots[c];
        const Clock::time_point now = Clock::now();
        if (tracer != nullptr) {
          tracer->Record("rpc.roundtrip", slot.sent, now, slot.index);
        }
        on_response(slot.index, msg.id, msg.body,
                    std::chrono::duration<double, std::micro>(now - slot.sent)
                        .count());
        ++stats.answered;
        slot.busy = false;
        if (now < stop && more()) {
          send_next(c);
        } else {
          --busy;
        }
      }
    }
  }
  stats.elapsed_s = SecondsSince(start);
  return stats;
}

}  // namespace perfbench
