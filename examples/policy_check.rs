//! A command-line policy checker: load a policy file written in the
//! GRBAC policy language, ask a question, get a decision with a
//! human-readable explanation — the §7 "prototype system" in miniature.
//!
//! ```text
//! cargo run --example policy_check -- <policy.grbac> <subject> <transaction> <object> [YYYY-MM-DD HH:MM]
//! ```
//!
//! Run without arguments to see it answer three questions against the
//! built-in §5.1 sample policy.

use grbac::core::engine::AccessRequest;
use grbac::env::provider::EnvironmentContext;
use grbac::env::time::{Date, TimeOfDay, Timestamp};
use grbac::policy::{compile, parse};

const SAMPLE_POLICY: &str = r#"
subject role family_member;
subject role parent extends family_member;
subject role child extends family_member;
object role entertainment_devices;
environment role weekdays = weekdays;
environment role free_time = between 19:00 and 22:00;
transaction operate;
subject alice is child;
subject mom is parent;
object tv is entertainment_devices;
"kids tv policy":
allow child to operate entertainment_devices when weekdays and free_time;
"parents any time":
allow parent to operate entertainment_devices;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("no arguments: demonstrating against the built-in sample policy\n");
        for (subject, when) in [
            ("alice", "2000-01-17 20:00"),
            ("alice", "2000-01-22 20:00"),
            ("mom", "2000-01-22 23:30"),
        ] {
            println!("$ policy_check <sample> {subject} operate tv \"{when}\"");
            check(SAMPLE_POLICY, subject, "operate", "tv", Some(when))?;
            println!();
        }
        return Ok(());
    }
    if args.len() < 4 {
        eprintln!(
            "usage: policy_check <policy.grbac> <subject> <transaction> <object> [YYYY-MM-DD HH:MM]"
        );
        std::process::exit(2);
    }
    let source = std::fs::read_to_string(&args[0])?;
    let when = args.get(4).map(String::as_str);
    check(&source, &args[1], &args[2], &args[3], when)?;
    Ok(())
}

fn check(
    source: &str,
    subject: &str,
    transaction: &str,
    object: &str,
    when: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let program = parse(source)?;
    let compiled = compile(&program)?;
    let engine = compiled.engine;
    let provider = compiled.provider;

    let subject_id = engine.entities().find_subject(subject)?;
    let transaction_id = engine.entities().find_transaction(transaction)?;
    let object_id = engine.entities().find_object(object)?;

    let now = match when {
        Some(text) => parse_datetime(text)?,
        None => Timestamp::EPOCH,
    };
    let environment = provider.snapshot(&EnvironmentContext::at(now).with_subject(subject_id));

    let decision = engine.decide(&AccessRequest::by_subject(
        subject_id,
        transaction_id,
        object_id,
        environment,
    ))?;
    println!(
        "at {now}: may {subject} {transaction} {object}?  ->  {}",
        decision.effect()
    );
    print!("{}", engine.render_decision(&decision));
    Ok(())
}

/// Parses `YYYY-MM-DD HH:MM` without external dependencies.
fn parse_datetime(text: &str) -> Result<Timestamp, Box<dyn std::error::Error>> {
    let err = || format!("expected YYYY-MM-DD HH:MM, got {text:?}");
    let (date_part, time_part) = text.trim().split_once(' ').ok_or_else(err)?;
    let mut date_fields = date_part.split('-');
    let year: i32 = date_fields.next().ok_or_else(err)?.parse()?;
    let month: u8 = date_fields.next().ok_or_else(err)?.parse()?;
    let day: u8 = date_fields.next().ok_or_else(err)?.parse()?;
    let (hour_text, minute_text) = time_part.split_once(':').ok_or_else(err)?;
    let hour: u8 = hour_text.parse()?;
    let minute: u8 = minute_text.parse()?;
    Ok(Timestamp::from_civil(
        Date::new(year, month, day)?,
        TimeOfDay::hm(hour, minute)?,
    ))
}
