#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace bat::obs::json {

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        Value v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        BAT_FAIL("JSON parse error at byte " << pos_ << ": " << why);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
        }
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) {
            return false;
        }
        pos_ += lit.size();
        return true;
    }

    Value parse_value() {
        skip_ws();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': {
                Value v;
                v.kind = Value::Kind::string;
                v.str_v = parse_string();
                return v;
            }
            case 't':
            case 'f':
            case 'n': {
                const char c = peek();
                if (!consume_literal(c == 't' ? "true" : c == 'f' ? "false" : "null")) {
                    fail("invalid literal");
                }
                Value v;
                v.kind = c == 'n' ? Value::Kind::null : Value::Kind::boolean;
                v.bool_v = c == 't';
                return v;
            }
            default: return parse_number();
        }
    }

    Value parse_object() {
        expect('{');
        Value v;
        v.kind = Value::Kind::object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.obj_v.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value parse_array() {
        expect('[');
        Value v;
        v.kind = Value::Kind::array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.arr_v.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code += static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code += static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code += static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("invalid \\u escape digit");
                        }
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs in
                    // trace names do not occur; pass them through raw).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            fail("invalid number");
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            fail("invalid number '" + token + "'");
        }
        Value out;
        out.kind = Value::Kind::number;
        out.num_v = v;
        return out;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
    if (kind != Kind::object) {
        return nullptr;
    }
    for (const auto& [k, v] : obj_v) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

void append_string(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char hex[8];
                    std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                    out += hex;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_number(std::string& out, double v) {
    char num[32];
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    if (v == std::trunc(v) && std::fabs(v) < 1e15) {
        std::snprintf(num, sizeof(num), "%lld", static_cast<long long>(v));
    } else {
        std::snprintf(num, sizeof(num), "%.15g", v);
    }
    out += num;
}

}  // namespace bat::obs::json
