//! The policy language: write the §5.1 household policy as text, parse
//! and compile it, mediate against it, then pretty-print it back.
//!
//! Run with: `cargo run --example policy_language`

use grbac::core::engine::AccessRequest;
use grbac::env::provider::EnvironmentContext;
use grbac::env::time::{Date, TimeOfDay, Timestamp};
use grbac::policy::{compile, parse, print};

const POLICY: &str = r#"
# The sample household from the GRBAC paper, section 5.1.

subject role home_user;
subject role family_member extends home_user;
subject role parent extends family_member;
subject role child extends family_member;

object role entertainment_devices;
object role dangerous_appliance;

environment role weekdays = weekdays;
environment role free_time = between 19:00 and 22:00;

transaction operate;

subject mom is parent;
subject dad is parent;
subject alice is child;
subject bobby is child;

object tv is entertainment_devices;
object game_console is entertainment_devices;
object oven is dangerous_appliance;

"kids tv policy":
allow child to operate entertainment_devices when weekdays and free_time;

"parents may do anything":
allow parent to do anything anything;

"no dangerous appliances for children":
deny child to do anything dangerous_appliance;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parse and compile.
    let program = parse(POLICY)?;
    println!("parsed {} statements", program.statements.len());
    let compiled = compile(&program)?;
    let engine = compiled.engine;
    let provider = compiled.provider;
    println!("compiled {} rules\n", engine.rules().len());

    // Look names up and mediate at two times.
    let alice = engine.entities().find_subject("alice")?;
    let mom = engine.entities().find_subject("mom")?;
    let tv = engine.entities().find_object("tv")?;
    let oven = engine.entities().find_object("oven")?;
    let operate = engine.entities().find_transaction("operate")?;

    let monday_8pm = Timestamp::from_civil(Date::new(2000, 1, 17)?, TimeOfDay::hm(20, 0)?);
    let monday_noon = Timestamp::from_civil(Date::new(2000, 1, 17)?, TimeOfDay::hm(12, 0)?);

    for (label, ts) in [("Monday 20:00", monday_8pm), ("Monday 12:00", monday_noon)] {
        let env = provider.snapshot(&EnvironmentContext::at(ts));
        let d = engine.decide(&AccessRequest::by_subject(alice, operate, tv, env.clone()))?;
        println!("{label}: alice -> tv   : {d}");
        let d = engine.decide(&AccessRequest::by_subject(
            alice,
            operate,
            oven,
            env.clone(),
        ))?;
        println!("{label}: alice -> oven : {d}");
        let d = engine.decide(&AccessRequest::by_subject(mom, operate, oven, env))?;
        println!("{label}: mom   -> oven : {d}");
    }

    // Round-trip: print the canonical form back out.
    println!("\ncanonical policy text:\n----------------------");
    print!("{}", print(&program));

    // The printed text re-parses to the identical AST.
    assert_eq!(parse(&print(&program))?, program);
    Ok(())
}
