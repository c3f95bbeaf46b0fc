#include "harness/json_scrape.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace qross::bench {

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) return {};
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

std::vector<std::string> extract_values(const std::string& text,
                                        const std::string& key) {
  std::vector<std::string> values;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos < text.size() && text[pos] == '"') {
      const std::size_t end = text.find('"', pos + 1);
      if (end == std::string::npos) break;
      values.push_back(text.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    } else {
      std::size_t end = pos;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '.' || text[end] == '-' || text[end] == 'e' ||
              text[end] == 'E' || text[end] == '+')) {
        ++end;
      }
      values.push_back(text.substr(pos, end - pos));
      pos = end;
    }
  }
  return values;
}

}  // namespace qross::bench
