//! Tokenization and text normalization.
//!
//! The tokenizer lowercases, splits on non-alphanumeric boundaries,
//! drops a small English stopword list and applies a light suffix
//! stemmer (plural/possessive stripping). It is deliberately simple:
//! both MultiRAG and every baseline share it, so tokenizer quality
//! cancels out of the comparisons.

/// English stopwords dropped by [`tokenize`].
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "he",
    "her", "his", "if", "in", "into", "is", "it", "its", "no", "not", "of", "on", "or", "s", "she",
    "so", "such", "that", "the", "their", "them", "then", "there", "these", "they", "this", "to",
    "was", "were", "what", "when", "where", "which", "who", "whom", "will", "with", "you",
];

fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// Lowercases and strips a few high-frequency suffixes. Not a full
/// Porter stemmer — just enough that "directors" matches "director".
pub fn stem(word: &str) -> String {
    let w = word.to_lowercase();
    if w.len() > 4 && w.ends_with("ies") {
        return format!("{}y", &w[..w.len() - 3]);
    }
    if w.len() > 3 && w.ends_with("es") && !w.ends_with("ss") {
        let trimmed = &w[..w.len() - 2];
        // "movies" handled above; "boxes" → "box", "notes" → "note"
        if trimmed.ends_with('x') || trimmed.ends_with("ch") || trimmed.ends_with("sh") {
            return trimmed.to_string();
        }
        return w[..w.len() - 1].to_string();
    }
    if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") {
        return w[..w.len() - 1].to_string();
    }
    w
}

/// Splits text into normalized tokens: lowercase, alphanumeric runs,
/// stopwords removed, stemmed.
pub fn tokenize(text: &str) -> Vec<String> {
    raw_tokens(text)
        .into_iter()
        .filter(|t| !is_stopword(t))
        .map(|t| stem(&t))
        .collect()
}

/// Splits text into lowercase alphanumeric tokens without stopword
/// removal or stemming (used for entity-name matching, where stopwords
/// can be load-bearing).
pub fn raw_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            for lower in c.to_lowercase() {
                current.push(lower);
            }
        } else if !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Normalizes an entity-ish mention for comparison: lowercase, single
/// spaces, no punctuation.
pub fn normalize_mention(text: &str) -> String {
    raw_tokens(text).join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Flight CA981 Delayed!"),
            vec!["flight", "ca981", "delayed"]
        );
    }

    #[test]
    fn tokenize_drops_stopwords() {
        let tokens = tokenize("the status of the flight");
        assert_eq!(tokens, vec!["statu", "flight"]);
        assert!(!tokens.contains(&"the".to_string()));
    }

    #[test]
    fn stemming_merges_plurals() {
        assert_eq!(stem("directors"), "director");
        assert_eq!(stem("movies"), "movy"); // consistent, if not pretty
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("glass"), "glass"); // -ss survives
        assert_eq!(stem("notes"), "note");
    }

    #[test]
    fn stemming_consistency_is_what_matters() {
        // Same stems for singular/plural pairs is the contract.
        assert_eq!(stem("stocks"), stem("stock"));
        assert_eq!(stem("flights"), stem("flight"));
        assert_eq!(stem("queries"), stem("query"));
    }

    #[test]
    fn raw_tokens_keeps_stopwords() {
        assert_eq!(raw_tokens("The Lord of the Rings").len(), 5);
    }

    #[test]
    fn unicode_tokens_survive() {
        assert_eq!(raw_tokens("北京 Beijing"), vec!["北京", "beijing"]);
    }

    #[test]
    fn normalize_mention_collapses_punctuation() {
        assert_eq!(normalize_mention("  J.R.R. Tolkien "), "j r r tolkien");
        assert_eq!(
            normalize_mention("J R R Tolkien"),
            normalize_mention("j.r.r. tolkien")
        );
    }

    #[test]
    fn empty_text_gives_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ---").is_empty());
    }
}
