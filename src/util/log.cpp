#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace bat {

namespace {

std::atomic<int> g_level{[] {
    if (const char* env = std::getenv("BAT_LOG")) {
        return std::atoi(env);
    }
    return static_cast<int>(LogLevel::warn);
}()};

thread_local int t_rank = -1;

const char* level_name(LogLevel level) {
    switch (level) {
        case LogLevel::error: return "ERROR";
        case LogLevel::warn: return "WARN";
        case LogLevel::info: return "INFO";
        case LogLevel::debug: return "DEBUG";
        default: return "?";
    }
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel log_level() { return static_cast<LogLevel>(g_level.load()); }

void set_thread_log_rank(int rank) { t_rank = rank; }

int thread_log_rank() { return t_rank; }

namespace detail {
void log_emit(LogLevel level, const std::string& msg) {
    // Preformat the whole line so a single fwrite emits it; the mutex
    // orders lines from concurrent rank threads (fwrite alone would keep a
    // line intact but not its position among multi-line messages).
    std::string line = "[bat ";
    if (t_rank >= 0) {
        line += 'r';
        line += std::to_string(t_rank);
        line += ' ';
    }
    line += level_name(level);
    line += "] ";
    line += msg;
    line += '\n';
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    std::fwrite(line.data(), 1, line.size(), stderr);
}
}  // namespace detail

}  // namespace bat
