//! Per-tenant quota primitives: token buckets for admission rate and
//! the spec syntax the CLI exposes (`name:rate:burst[:weight]`).
//!
//! The bucket is deliberately clock-free: the caller tracks the last
//! refill instant and feeds elapsed time in, so the arithmetic is
//! deterministic and unit-testable without sleeping. Weights feed the
//! deficit round-robin that grants execution slots ([`crate::core`]):
//! the bucket decides *whether* a request gets in, the weight decides
//! *how soon* it runs relative to other tenants once admitted.

use std::time::Duration;

/// Quota configuration for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name, as sent in the request's `tenant` parameter.
    pub name: String,
    /// Sustained admission rate, requests per second.
    pub rate: f64,
    /// Burst capacity, requests (the bucket's size; also its initial
    /// fill, so a fresh tenant can burst immediately).
    pub burst: f64,
    /// Dequeue weight for the deficit round-robin (≥ 1).
    pub weight: u32,
}

impl TenantSpec {
    /// Parses `name:rate:burst[:weight]`, the CLI's `--tenants` element
    /// syntax.
    ///
    /// # Errors
    ///
    /// A message naming the offending field; rates and bursts must be
    /// positive and finite, weight at least 1.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            return Err(format!(
                "tenant spec '{s}' must be name:rate:burst[:weight]"
            ));
        }
        let name = parts[0].trim();
        if name.is_empty() {
            return Err(format!("tenant spec '{s}' has an empty name"));
        }
        let rate: f64 = parts[1]
            .parse()
            .map_err(|_| format!("tenant '{name}': rate '{}' is not a number", parts[1]))?;
        let burst: f64 = parts[2]
            .parse()
            .map_err(|_| format!("tenant '{name}': burst '{}' is not a number", parts[2]))?;
        let weight: u32 = match parts.get(3) {
            None => 1,
            Some(w) => w
                .parse()
                .map_err(|_| format!("tenant '{name}': weight '{w}' is not an integer"))?,
        };
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!("tenant '{name}': rate must be positive"));
        }
        if !(burst.is_finite() && burst >= 1.0) {
            return Err(format!("tenant '{name}': burst must be at least 1"));
        }
        if weight == 0 {
            return Err(format!("tenant '{name}': weight must be at least 1"));
        }
        Ok(Self {
            name: name.to_string(),
            rate,
            burst,
            weight,
        })
    }
}

/// A token bucket: `rate` tokens/second refill, capacity `burst`, one
/// token per admitted request.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    /// A full bucket (fresh tenants may burst immediately).
    #[must_use]
    pub fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        Self {
            tokens: burst,
            rate: rate.max(f64::MIN_POSITIVE),
            burst,
        }
    }

    /// Credits `elapsed` worth of refill, capped at the burst size.
    pub fn refill(&mut self, elapsed: Duration) {
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
    }

    /// Takes one token if available.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Time until the bucket holds a whole token again — the honest
    /// `Retry-After` hint for a rate-limited shed.
    #[must_use]
    pub fn time_to_token(&self) -> Duration {
        let missing = (1.0 - self.tokens).max(0.0);
        Duration::from_secs_f64(missing / self.rate)
    }

    /// Tokens available right now (for `/stats`).
    #[must_use]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_with_and_without_weight() {
        let t = TenantSpec::parse("alpha:100:10").unwrap();
        assert_eq!(
            (t.name.as_str(), t.rate, t.burst, t.weight),
            ("alpha", 100.0, 10.0, 1)
        );
        let t = TenantSpec::parse("beta:2.5:4:3").unwrap();
        assert_eq!((t.rate, t.burst, t.weight), (2.5, 4.0, 3));
    }

    #[test]
    fn spec_rejects_malformed_fields() {
        for bad in [
            "",
            "a",
            "a:1",
            ":1:1",
            "a:zero:1",
            "a:1:nan",
            "a:-1:1",
            "a:1:0",
            "a:1:1:0",
            "a:1:1:x",
            "a:1:1:1:1",
        ] {
            assert!(TenantSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bucket_starts_full_and_caps_at_burst() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.try_take() && b.try_take() && b.try_take());
        assert!(!b.try_take());
        b.refill(Duration::from_secs(60));
        assert!((b.tokens() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn refill_rate_is_linear() {
        let mut b = TokenBucket::new(10.0, 100.0);
        while b.try_take() {}
        b.refill(Duration::from_millis(250));
        assert!((b.tokens() - 2.5).abs() < 1e-9);
        assert!(b.try_take() && b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn time_to_token_inverts_the_rate() {
        let mut b = TokenBucket::new(20.0, 1.0);
        assert!(b.try_take());
        let wait = b.time_to_token();
        assert!(
            wait > Duration::from_millis(40) && wait <= Duration::from_millis(50),
            "wait = {wait:?}"
        );
        b.refill(wait);
        assert!(b.try_take());
    }
}
