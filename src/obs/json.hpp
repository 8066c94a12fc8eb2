#pragma once
// JSON for the observability layer: one writer used by every exporter
// (Chrome trace, metrics, run report, flight record, query log, profile)
// and a minimal recursive-descent parser for tools/bat_obs and the tests.
// The parser builds a simple tree of Values and throws bat::Error with a
// byte offset on malformed input. Neither streams — traces from the bounded
// ring buffers are a few MB at most.

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bat::obs::json {

struct Value {
    enum class Kind { null, boolean, number, string, array, object };

    Kind kind = Kind::null;
    bool bool_v = false;
    double num_v = 0.0;
    std::string str_v;
    std::vector<Value> arr_v;
    std::vector<std::pair<std::string, Value>> obj_v;  // preserves order

    bool is_null() const { return kind == Kind::null; }
    bool is_bool() const { return kind == Kind::boolean; }
    bool is_number() const { return kind == Kind::number; }
    bool is_string() const { return kind == Kind::string; }
    bool is_array() const { return kind == Kind::array; }
    bool is_object() const { return kind == Kind::object; }

    bool boolean() const { return bool_v; }
    double number() const { return num_v; }
    const std::string& string() const { return str_v; }
    const std::vector<Value>& array() const { return arr_v; }
    const std::vector<std::pair<std::string, Value>>& object() const { return obj_v; }

    /// First member with the given key, or nullptr (objects only).
    const Value* find(std::string_view key) const;
};

/// Parse a complete JSON document; trailing non-whitespace is an error.
Value parse(std::string_view text);

/// Append `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);
/// Append a number: integral values print exactly, others with %.15g.
void append_number(std::string& out, double v);

/// Streaming writer that tracks commas: open containers, then emit
/// `field(key, value)` pairs in objects or `value(v)` items in arrays.
/// `raw` splices an already-rendered JSON value.
class Writer {
public:
    explicit Writer(std::string& out) : out_(out) {}

    Writer& begin_object() { return open('{'); }
    Writer& end_object() { return close('}'); }
    Writer& begin_array() { return open('['); }
    Writer& end_array() { return close(']'); }

    Writer& key(std::string_view k) {
        separate();
        append_string(out_, k);
        out_ += ':';
        after_key_ = true;
        return *this;
    }

    template <typename T>
    Writer& value(const T& v) {
        separate();
        if constexpr (std::is_same_v<T, bool>) {
            out_ += v ? "true" : "false";
        } else if constexpr (std::is_integral_v<T>) {
            out_ += std::to_string(v);
        } else if constexpr (std::is_floating_point_v<T>) {
            append_number(out_, static_cast<double>(v));
        } else {
            append_string(out_, std::string_view(v));
        }
        return *this;
    }

    template <typename T>
    Writer& field(std::string_view k, const T& v) {
        return key(k).value(v);
    }

    Writer& raw(std::string_view json) {
        separate();
        out_ += json;
        return *this;
    }

private:
    void separate() {
        if (after_key_) {
            after_key_ = false;
        } else if (!first_.empty()) {
            if (!first_.back()) {
                out_ += ',';
            }
            first_.back() = false;
        }
    }
    Writer& open(char c) {
        separate();
        out_ += c;
        first_.push_back(true);
        return *this;
    }
    Writer& close(char c) {
        out_ += c;
        first_.pop_back();
        return *this;
    }

    std::string& out_;
    std::vector<bool> first_;
    bool after_key_ = false;
};

}  // namespace bat::obs::json
