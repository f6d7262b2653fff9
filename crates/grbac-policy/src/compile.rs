//! Compiling parsed policies into a live GRBAC engine.
//!
//! Statements are processed in source order with declare-before-use
//! semantics: a rule (or an `extends` clause) may only reference names
//! already declared above it. The compiler produces both the policy
//! engine and the [`EnvironmentRoleProvider`] holding the time bindings
//! of `environment role … = …;` declarations.

use grbac_core::confidence::Confidence;
use grbac_core::engine::Grbac;
use grbac_core::role::RoleKind;
use grbac_core::rule::RuleDef;
use grbac_env::calendar::TimeExpr;
use grbac_env::provider::{EnvCondition, EnvironmentRoleProvider};
use grbac_env::time::{TimeOfDay, Weekday};

use crate::ast::{Program, RuleStmt, Stmt, TimeSpec};
use crate::error::{PolicyError, Position, Result};

/// The output of compilation: an engine plus environment bindings.
#[derive(Debug)]
pub struct CompiledPolicy {
    /// The policy engine with all declarations and rules installed.
    pub engine: Grbac,
    /// Activation conditions for bound environment roles.
    pub provider: EnvironmentRoleProvider,
}

/// Compiles a program into a fresh engine.
///
/// # Errors
///
/// [`PolicyError::Undeclared`] for names used before declaration, plus
/// any engine/environment error (duplicates, kind mismatches).
pub fn compile(program: &Program) -> Result<CompiledPolicy> {
    let mut engine = Grbac::new();
    let mut provider = EnvironmentRoleProvider::new();
    compile_into(program, &mut engine, &mut provider)?;
    Ok(CompiledPolicy { engine, provider })
}

/// Compiles a program into an existing engine and provider (useful to
/// layer a policy file onto a pre-built home).
///
/// # Errors
///
/// See [`compile`].
pub fn compile_into(
    program: &Program,
    engine: &mut Grbac,
    provider: &mut EnvironmentRoleProvider,
) -> Result<()> {
    // Name errors carry no source positions post-parse; report 0:0.
    let nowhere = Position { line: 0, column: 0 };
    for stmt in &program.statements {
        match stmt {
            Stmt::RoleDecl {
                kind,
                name,
                extends,
                binding,
            } => {
                let role = match kind {
                    RoleKind::Subject => engine.declare_subject_role(name.clone())?,
                    RoleKind::Object => engine.declare_object_role(name.clone())?,
                    RoleKind::Environment => engine.declare_environment_role(name.clone())?,
                };
                for parent in extends {
                    let parent_id = engine.roles().find(*kind, parent).map_err(|_| {
                        PolicyError::Undeclared {
                            at: nowhere,
                            kind: "role",
                            name: parent.clone(),
                        }
                    })?;
                    engine.specialize(role, parent_id)?;
                }
                if let Some(spec) = binding {
                    provider.define(role, EnvCondition::Time(lower_time_spec(spec, nowhere)?))?;
                }
            }
            Stmt::SubjectDecl { name, roles } => {
                let subject = engine.declare_subject(name.clone())?;
                for role in roles {
                    let role_id = engine.roles().find(RoleKind::Subject, role).map_err(|_| {
                        PolicyError::Undeclared {
                            at: nowhere,
                            kind: "subject role",
                            name: role.clone(),
                        }
                    })?;
                    engine.assign_subject_role(subject, role_id)?;
                }
            }
            Stmt::ObjectDecl { name, roles } => {
                let object = engine.declare_object(name.clone())?;
                for role in roles {
                    let role_id = engine.roles().find(RoleKind::Object, role).map_err(|_| {
                        PolicyError::Undeclared {
                            at: nowhere,
                            kind: "object role",
                            name: role.clone(),
                        }
                    })?;
                    engine.assign_object_role(object, role_id)?;
                }
            }
            Stmt::TransactionDecl { name } => {
                engine.declare_transaction(name.clone())?;
            }
            Stmt::Rule(rule) => {
                let def = lower_rule(rule, engine, nowhere)?;
                engine.add_rule(def)?;
            }
            Stmt::SodDecl {
                static_kind,
                first,
                second,
            } => {
                let kind = if *static_kind {
                    grbac_core::sod::SodKind::Static
                } else {
                    grbac_core::sod::SodKind::Dynamic
                };
                let first_id = engine.roles().find(RoleKind::Subject, first).map_err(|_| {
                    PolicyError::Undeclared {
                        at: nowhere,
                        kind: "subject role",
                        name: first.clone(),
                    }
                })?;
                let second_id = engine
                    .roles()
                    .find(RoleKind::Subject, second)
                    .map_err(|_| PolicyError::Undeclared {
                        at: nowhere,
                        kind: "subject role",
                        name: second.clone(),
                    })?;
                let constraint = grbac_core::sod::SodConstraint::mutual_exclusion(
                    format!("exclude {first} and {second}"),
                    kind,
                    first_id,
                    second_id,
                )?;
                engine.add_sod_constraint(constraint)?;
            }
            Stmt::DelegationDecl {
                delegator,
                delegable,
                depth,
            } => {
                let delegator_id =
                    engine
                        .roles()
                        .find(RoleKind::Subject, delegator)
                        .map_err(|_| PolicyError::Undeclared {
                            at: nowhere,
                            kind: "subject role",
                            name: delegator.clone(),
                        })?;
                let delegable_id =
                    engine
                        .roles()
                        .find(RoleKind::Subject, delegable)
                        .map_err(|_| PolicyError::Undeclared {
                            at: nowhere,
                            kind: "subject role",
                            name: delegable.clone(),
                        })?;
                engine.add_delegation_rule(delegator_id, delegable_id, *depth)?;
            }
        }
    }
    Ok(())
}

fn lower_rule(rule: &RuleStmt, engine: &Grbac, nowhere: Position) -> Result<RuleDef> {
    let mut def = if rule.allow {
        RuleDef::permit()
    } else {
        RuleDef::deny()
    };
    if let Some(label) = &rule.label {
        def = def.named(label.clone());
    }
    if let Some(role) = &rule.subject_role {
        let id =
            engine
                .roles()
                .find(RoleKind::Subject, role)
                .map_err(|_| PolicyError::Undeclared {
                    at: nowhere,
                    kind: "subject role",
                    name: role.clone(),
                })?;
        def = def.subject_role(id);
    }
    if let Some(role) = &rule.object_role {
        let id =
            engine
                .roles()
                .find(RoleKind::Object, role)
                .map_err(|_| PolicyError::Undeclared {
                    at: nowhere,
                    kind: "object role",
                    name: role.clone(),
                })?;
        def = def.object_role(id);
    }
    if let Some(name) = &rule.transaction {
        let id = engine
            .entities()
            .find_transaction(name)
            .map_err(|_| PolicyError::Undeclared {
                at: nowhere,
                kind: "transaction",
                name: name.clone(),
            })?;
        def = def.transaction(id);
    }
    for role in &rule.when {
        let id = engine
            .roles()
            .find(RoleKind::Environment, role)
            .map_err(|_| PolicyError::Undeclared {
                at: nowhere,
                kind: "environment role",
                name: role.clone(),
            })?;
        def = def.when(id);
    }
    if let Some(percent) = rule.confidence_percent {
        let confidence =
            Confidence::new(percent / 100.0).map_err(|_| PolicyError::InvalidConfidence {
                at: nowhere,
                value: percent,
            })?;
        def = def.min_confidence(confidence);
    }
    Ok(def)
}

fn lower_time_spec(spec: &TimeSpec, nowhere: Position) -> Result<TimeExpr> {
    Ok(match spec {
        TimeSpec::Always => TimeExpr::Always,
        TimeSpec::Never => TimeExpr::Never,
        TimeSpec::Weekdays => TimeExpr::weekdays(),
        TimeSpec::Weekend => TimeExpr::weekend(),
        TimeSpec::On(day) => TimeExpr::on(parse_weekday(day, nowhere)?),
        TimeSpec::Between { start, end } => TimeExpr::between(
            TimeOfDay::hm(start.0, start.1)?,
            TimeOfDay::hm(end.0, end.1)?,
        ),
        TimeSpec::All(atoms) => TimeExpr::All(
            atoms
                .iter()
                .map(|a| lower_time_spec(a, nowhere))
                .collect::<Result<Vec<_>>>()?,
        ),
    })
}

fn parse_weekday(name: &str, at: Position) -> Result<Weekday> {
    Ok(match name {
        "monday" => Weekday::Monday,
        "tuesday" => Weekday::Tuesday,
        "wednesday" => Weekday::Wednesday,
        "thursday" => Weekday::Thursday,
        "friday" => Weekday::Friday,
        "saturday" => Weekday::Saturday,
        "sunday" => Weekday::Sunday,
        _ => {
            return Err(PolicyError::UnknownWeekday {
                at,
                name: name.to_owned(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use grbac_core::engine::AccessRequest;
    use grbac_env::provider::EnvironmentContext;
    use grbac_env::time::{Date, Timestamp};

    /// The §5.1 policy, as a policy-language source file.
    const SECTION_51: &str = r#"
        # The sample household from the GRBAC paper, section 5.1.
        subject role home_user;
        subject role family_member extends home_user;
        subject role parent extends family_member;
        subject role child extends family_member;

        object role entertainment_devices;

        environment role weekdays = weekdays;
        environment role free_time = between 19:00 and 22:00;

        transaction operate;

        subject mom is parent;
        subject bobby is child;
        object tv is entertainment_devices;

        "kids tv policy":
        allow child to operate entertainment_devices when weekdays and free_time;
    "#;

    fn monday_8pm() -> Timestamp {
        Timestamp::from_civil(
            Date::new(2000, 1, 17).unwrap(),
            TimeOfDay::hm(20, 0).unwrap(),
        )
    }

    #[test]
    fn compiles_and_mediates_the_flagship_policy() {
        let program = parse(SECTION_51).unwrap();
        let CompiledPolicy { engine, provider } = compile(&program).unwrap();

        let bobby = engine.entities().find_subject("bobby").unwrap();
        let mom = engine.entities().find_subject("mom").unwrap();
        let tv = engine.entities().find_object("tv").unwrap();
        let operate = engine.entities().find_transaction("operate").unwrap();

        let env = provider.snapshot(&EnvironmentContext::at(monday_8pm()));
        let d = engine
            .decide(&AccessRequest::by_subject(bobby, operate, tv, env.clone()))
            .unwrap();
        assert!(d.is_permitted());

        let d = engine
            .decide(&AccessRequest::by_subject(mom, operate, tv, env))
            .unwrap();
        assert!(!d.is_permitted(), "the rule names child, not parent");

        // Saturday: weekdays role inactive.
        let saturday = Timestamp::from_civil(
            Date::new(2000, 1, 22).unwrap(),
            TimeOfDay::hm(20, 0).unwrap(),
        );
        let env = provider.snapshot(&EnvironmentContext::at(saturday));
        let d = engine
            .decide(&AccessRequest::by_subject(bobby, operate, tv, env))
            .unwrap();
        assert!(!d.is_permitted());
    }

    #[test]
    fn rule_labels_become_rule_names() {
        let program = parse(SECTION_51).unwrap();
        let compiled = compile(&program).unwrap();
        assert_eq!(compiled.engine.rules().len(), 1);
        assert_eq!(compiled.engine.rules()[0].name(), Some("kids tv policy"));
    }

    #[test]
    fn confidence_clause_lowers_to_threshold() {
        let source = "
            subject role child;
            allow child to do anything anything with confidence 90%;
        ";
        let compiled = compile(&parse(source).unwrap()).unwrap();
        let rule = &compiled.engine.rules()[0];
        assert_eq!(rule.min_confidence(), Some(Confidence::new(0.9).unwrap()));
    }

    #[test]
    fn undeclared_names_are_reported() {
        let cases = [
            ("allow child to do anything anything;", "child"),
            ("subject role x; allow x to operate anything;", "operate"),
            ("subject alice is ghost_role;", "ghost_role"),
            ("object tv is ghost_role;", "ghost_role"),
            ("subject role x extends ghost;", "ghost"),
            (
                "subject role x; allow x to do anything anything when ghost_env;",
                "ghost_env",
            ),
        ];
        for (source, missing) in cases {
            let err = compile(&parse(source).unwrap()).unwrap_err();
            match err {
                PolicyError::Undeclared { name, .. } => assert_eq!(name, missing),
                other => panic!("expected Undeclared for {source:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn weekday_bindings_lower_correctly() {
        let source = "
            environment role mondays = on monday;
            environment role bad = on caturday;
        ";
        let err = compile(&parse(source).unwrap()).unwrap_err();
        assert!(matches!(err, PolicyError::UnknownWeekday { name, .. } if name == "caturday"));
    }

    #[test]
    fn deny_rules_compile() {
        let source = "
            subject role child;
            object role dangerous_appliance;
            deny child to do anything dangerous_appliance;
        ";
        let compiled = compile(&parse(source).unwrap()).unwrap();
        assert_eq!(
            compiled.engine.rules()[0].effect(),
            grbac_core::rule::Effect::Deny
        );
    }

    #[test]
    fn sod_and_delegation_statements_compile() {
        let source = "
            subject role parent;
            subject role child_supervisor;
            subject role teller;
            subject role account_holder;
            exclude teller and account_holder dynamically;
            allow parent to delegate child_supervisor depth 2;
        ";
        let compiled = compile(&parse(source).unwrap()).unwrap();
        assert_eq!(compiled.engine.sod().len(), 1);
        assert_eq!(compiled.engine.delegation_rules().len(), 1);
        assert_eq!(compiled.engine.delegation_rules()[0].max_depth, 2);

        // Undeclared roles in either statement are reported.
        let err = compile(&parse("exclude a and b statically;").unwrap()).unwrap_err();
        assert!(matches!(err, PolicyError::Undeclared { .. }));
        let err = compile(&parse("allow a to delegate b;").unwrap()).unwrap_err();
        assert!(matches!(err, PolicyError::Undeclared { .. }));
    }

    #[test]
    fn compiled_delegation_rules_are_live() {
        let source = "
            subject role parent;
            subject role child_supervisor;
            subject mom is parent, child_supervisor;
            subject robin is parent;
        ";
        // robin is (oddly) a parent, but we delegate from mom.
        let mut engine = compile(&parse(source).unwrap()).unwrap().engine;
        let parent = engine.roles().find(RoleKind::Subject, "parent").unwrap();
        let supervisor = engine
            .roles()
            .find(RoleKind::Subject, "child_supervisor")
            .unwrap();
        engine.add_delegation_rule(parent, supervisor, 1).unwrap();
        let mom = engine.entities().find_subject("mom").unwrap();
        let robin = engine.entities().find_subject("robin").unwrap();
        engine.delegate(mom, robin, supervisor).unwrap();
        assert!(engine.assignments().subject_has(robin, supervisor));
    }

    #[test]
    fn compile_into_layers_onto_existing_engine() {
        let mut engine = Grbac::new();
        engine.declare_subject_role("guest").unwrap();
        let mut provider = EnvironmentRoleProvider::new();
        let program = parse("subject role visitor extends guest;").unwrap();
        compile_into(&program, &mut engine, &mut provider).unwrap();
        assert!(engine.roles().find(RoleKind::Subject, "visitor").is_ok());
    }
}
